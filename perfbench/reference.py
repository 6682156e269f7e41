"""Dense reference computations, made apart from the program under test.

Everything here is built from textbook definitions: gate unitaries,
Kraus operators or closed-form channels, and numpy eigendecompositions.
Nothing is imported from ``puremit``, so the correctness checks of the
benchmark do not share code with what they check.

Conventions match the circuit format: qubit 0 is the most significant
tensor factor, a gate's first target is its control, and rotations are
``exp(-i theta P / 2)``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def _rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * pauli


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


FIXED_GATES = {
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "CNOT": _controlled(X),
    "CZ": _controlled(Z),
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}
ROTATIONS = {"RX": X, "RY": Y, "RZ": Z}


def gate_unitary(name: str, angle: float | None) -> np.ndarray:
    if name in ROTATIONS:
        return _rotation(ROTATIONS[name], angle)
    return FIXED_GATES[name]


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Full-register matrix of ``op`` acting on ``targets``, by index arithmetic.

    Entry (i, j) is op[sub(i), sub(j)] when i and j agree on every
    non-target bit and 0 otherwise, where sub() reads the target bits in
    the order the targets are listed.
    """
    idx = np.arange(2**n)
    shifts = [n - 1 - t for t in targets]
    sub = np.zeros_like(idx)
    target_mask = 0
    for s in shifts:
        sub = (sub << 1) | ((idx >> s) & 1)
        target_mask |= 1 << s
    rest = idx & ~target_mask
    return np.where(rest[:, None] == rest[None, :], op[sub[:, None], sub[None, :]], 0)


def statevector(gates, n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for name, qubits, angle in gates:
        psi = embed(gate_unitary(name, angle), qubits, n) @ psi
    return psi


def pauli_matrix(string: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for letter in string:
        out = np.kron(out, PAULI[letter])
    return out


def full_weight_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """<P>_psi for every string over XYZ, in ``itertools.product("XYZ", repeat=n)`` order.

    Peels one qubit at a time off |psi><psi|: Tr_q(P rho) for the three
    Paulis P, batched over the strings found so far.
    """
    paulis = np.array([X, Y, Z])
    vals = np.outer(psi, psi.conj())[None]
    for _ in range(n):
        batch, dim, _ = vals.shape
        half = dim // 2
        v = vals.reshape(batch, 2, half, 2, half)
        vals = np.einsum("pji,bixjy->bpxy", paulis, v).reshape(batch * 3, half, half)
    return vals[:, 0, 0].real


def observable_matrix(terms) -> np.ndarray:
    return sum(c * pauli_matrix(s) for c, s in terms)


def _noise_kraus(kind: str, p: float, n_targets: int):
    """Textbook Kraus operators of one local noise insertion on ``n_targets`` qubits."""
    if kind == "depolarizing-local":
        # (1 - p) rho + p/4^k sum_P P rho P over all k-qubit Paulis
        q = p / 4**n_targets
        ops = []
        for letters in product("IXYZ", repeat=n_targets):
            weight = q + (1.0 - p if set(letters) == {"I"} else 0.0)
            ops.append(np.sqrt(weight) * pauli_matrix("".join(letters)))
        return ops
    if kind == "dephasing":
        single = [np.sqrt(1.0 - p) * I2, np.sqrt(p) * Z]
    elif kind == "amplitude-damping":
        single = [np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex),
                  np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)]
    else:
        raise ValueError(f"no Kraus form for {kind!r}")
    # independent channel on each target qubit
    ops = [np.ones((1, 1), dtype=complex)]
    for _ in range(n_targets):
        ops = [np.kron(a, b) for a in ops for b in single]
    return ops


def _apply_noise(mat, kind, p, targets, n, adjoint=False):
    if kind == "none" or p == 0.0:
        return mat
    if kind == "depolarizing-global":
        # self-adjoint and closed form: (1 - p) X + p Tr(X) I/d
        d = mat.shape[0]
        return (1.0 - p) * mat + p * np.trace(mat) / d * np.eye(d, dtype=complex)
    out = np.zeros_like(mat)
    for k in _noise_kraus(kind, p, len(targets)):
        full = embed(k, targets, n)
        if adjoint:
            full = full.conj().T
        out += full @ mat @ full.conj().T
    return out


def noisy_state(gates, n: int, kind: str, p: float) -> np.ndarray:
    """|0><0| through the circuit, with the noise after every gate on its qubits."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for name, qubits, angle in gates:
        u = embed(gate_unitary(name, angle), qubits, n)
        rho = _apply_noise(u @ rho @ u.conj().T, kind, p, qubits, n)
    return rho


def dual_state(gates, n: int, kind: str, p: float) -> np.ndarray:
    """Adjoint of the noisy inverse circuit applied to |0><0|.

    The inverse circuit runs G_L^dag .. G_1^dag, each followed by noise N.
    Its adjoint, read from the last channel back, is: for G_1 .. G_L in
    circuit order, apply N^dag on the gate's qubits, then conjugate by G.
    """
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[0, 0] = 1.0
    for name, qubits, angle in gates:
        mat = _apply_noise(mat, kind, p, qubits, n, adjoint=True)
        u = embed(gate_unitary(name, angle), qubits, n)
        mat = u @ mat @ u.conj().T
    return mat


def multicopy_ratio(rho, obs, m: int) -> float:
    """Tr(O rho^M) / Tr(rho^M) from the eigendecomposition of rho."""
    w, v = np.linalg.eigh(rho)
    diag = np.einsum("ij,jk,ki->i", v.conj().T, obs, v).real
    wm = w**m
    return float((wm * diag).sum() / wm.sum())


def chain_ratio(rho, rbar, obs, m: int) -> float:
    """Tr(O (rho rbar)^M) / Tr((rho rbar)^M), worked in the eigenbasis of rho.

    M = 1 is state verification; M copies give the combined estimator.
    """
    w, v = np.linalg.eigh(rho)
    step = w[:, None] * (v.conj().T @ rbar @ v)
    chain = np.linalg.matrix_power(step, m)
    obs_eig = v.conj().T @ obs @ v
    return float(np.trace(obs_eig @ chain).real / np.trace(chain).real)


def global_depolarized_ratio(ideal: float, n: int, n_gates: int, p: float, degree: int) -> float:
    """Closed form of a degree-k ratio under global depolarizing noise.

    rho = rho_bar = a |psi><psi| + (1 - a) I/d with a = (1 - p)^L, so for a
    traceless O the ratio is <O> ((a+b)^k - b^k) / ((a+b)^k + (d-1) b^k),
    with b = (1 - a)/d.
    """
    d = 2**n
    a = (1.0 - p) ** n_gates
    b = (1.0 - a) / d
    top = (a + b) ** degree
    return ideal * (top - b**degree) / (top + (d - 1) * b**degree)


def global_depolarized_state(psi: np.ndarray, n_gates: int, p: float) -> np.ndarray:
    a = (1.0 - p) ** n_gates
    d = psi.shape[0]
    return a * np.outer(psi, psi.conj()) + (1.0 - a) / d * np.eye(d, dtype=complex)
