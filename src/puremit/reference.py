"""Dense reference oracles: whole-register Kraus channels and composite contractions.

Everything here materializes what the engine never builds, so it is kept
off the hot path and used only to check the engine (``puremit verify``
and the tests):

* Kraus channels on a whole register: the identity, unitary and noise
  channels, a noisy circuit as one channel (``noisy_circuit_channel``),
  their composition, compression to minimal Kraus form and adjoints,
  ``apply_channel`` and the bare Kraus sum ``kraus_sum``;
* ``apply_local``, one gate's Kraus stack applied to the listed qubits of
  a matrix as a new matrix (``linalg.contract``), for the forward
  reference evolution of a composite;
* the composite permutations (``cyclic_permutation``, ``register_swap``,
  ``fredkin_matrix``, ``controlled_register_swap``) and the composite
  contractions the estimators' reduced chains equal
  (``permutation_contraction``, ``verified_composite_contraction``);
* ``forward_outcomes``, a pipeline's outcome probabilities from a forward
  evolution of its whole composite circuit;
* ``self_checks``, the seeded engine-against-oracle checks that
  ``puremit verify`` prints: the two contractions, the adjoint pairing,
  the noisy and dual states, the ``measurement`` protocols and every
  unit of a pipeline against ``forward_outcomes``, each the largest
  residual over its trials.

``channels``, ``schemes`` and ``sampling`` do not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import (
    NOISE_KINDS, NoiseModel, apply_noise, depolarize, dual_state, prepare_noisy_state,
    superoperator,
)
from .circuits import (
    I2, PAULI_Z, GateCircuit, embed_operator, gate_matrix, inverse_circuit, random_circuit,
)
from .linalg import (
    DensityOperator, _check_unitary, check_dimension, contract, kron_all, kron_power,
    random_density, random_hermitian, random_unitary, zero_projector,
)
from .measurement import (
    antisymmetric_product_measure, hadamard_test, product_expectation, symmetric_product_measure,
)
from .observables import PauliObservable, parse_observable, pauli_string_matrix
from .schemes import build_pipeline

COMPLETENESS_ATOL = 1e-10
_COMPRESS_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """Stack of Kraus operators, shape (num_ops, dim, dim).

    ``trace_preserving`` records whether sum K^dag K == I within
    tolerance; constructing with a claim that contradicts the operators
    raises.
    """

    ops: np.ndarray
    trace_preserving: bool = True

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex, copy=True)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus stack must have shape (k, d, d), got {ops.shape}")
        if ops.shape[0] < 1:
            raise ValueError("channel needs at least one Kraus operator")
        check_dimension(ops.shape[1])
        dev = completeness_defect(ops)
        if self.trace_preserving and dev > COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus operators violate completeness: |sum K^dag K - I| = {dev:.3e}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def num_ops(self) -> int:
        return self.ops.shape[0]

    @classmethod
    def from_ops(cls, ops, trace_preserving: bool | None = None) -> "KrausChannel":
        """Build a channel, auto-detecting trace preservation when unset."""
        stack = np.array([np.asarray(o, dtype=complex) for o in ops])
        if trace_preserving is None:
            trace_preserving = completeness_defect(stack) <= COMPLETENESS_ATOL
        return cls(stack, trace_preserving)


def completeness_defect(ops: np.ndarray) -> float:
    ops = np.asarray(ops, dtype=complex)
    acc = np.einsum("kij,kil->jl", ops.conj(), ops)
    return float(np.max(np.abs(acc - np.eye(ops.shape[1]))))


def identity_channel(dim: int) -> KrausChannel:
    check_dimension(dim)
    return KrausChannel(np.eye(dim, dtype=complex)[None, :, :], True)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    _check_unitary(u)
    return KrausChannel(u[None, :, :], True)


def apply_channel(channel: KrausChannel, state) -> DensityOperator:
    """Apply the channel to a state, returning a validated DensityOperator."""
    if isinstance(state, DensityOperator):
        mat = state.matrix
        normalized = state.normalized and channel.trace_preserving
    else:
        mat = np.asarray(state, dtype=complex)
        normalized = channel.trace_preserving
    if mat.shape[0] != channel.dim:
        raise ValueError(
            f"dimension mismatch: channel {channel.dim}, state {mat.shape[0]}"
        )
    return DensityOperator(kraus_sum(channel, mat), normalized=normalized)


def kraus_sum(channel: KrausChannel, mat: np.ndarray) -> np.ndarray:
    """sum_k K_k mat K_k^dag for any square matrix of the channel's size, a
    state or not (``puremit verify`` pairs adjoints on Hermitian matrices)."""
    ops = channel.ops
    return (ops @ mat @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def adjoint_channel(channel: KrausChannel) -> KrausChannel:
    """Heisenberg-picture adjoint {K^dag}. Unital iff the original is TP."""
    ops = np.ascontiguousarray(channel.ops.conj().transpose(0, 2, 1))
    return KrausChannel.from_ops(ops)


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel running ``first`` then ``second``; Kraus set is the product set."""
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    ops = np.einsum("aij,bjk->abik", second.ops, first.ops).reshape(
        -1, first.dim, first.dim
    )
    return KrausChannel(ops, first.trace_preserving and second.trace_preserving)


def compress_channel(channel: KrausChannel, tol: float = _COMPRESS_TOL) -> KrausChannel:
    """Minimal Kraus form via the Choi matrix eigendecomposition.

    The returned channel has the same action and at most dim**2 operators;
    eigendirections with weight below ``tol`` are dropped.
    """
    d = channel.dim
    # Choi = sum_k vec(K) vec(K)^dag with row-major vec
    vecs = channel.ops.reshape(channel.num_ops, d * d)
    choi = vecs.T @ vecs.conj()
    choi = (choi + choi.conj().T) / 2.0
    w, v = np.linalg.eigh(choi)
    keep = w > tol
    if not np.any(keep):
        keep = w >= w.max()
    ops = np.array(
        [np.sqrt(wi) * v[:, i].reshape(d, d) for i, wi in enumerate(w) if keep[i]]
    )
    return KrausChannel(ops, channel.trace_preserving)


def depolarizing_channel(n_qubits: int, p: float) -> KrausChannel:
    """k-qubit depolarizing: rho -> (1-p) rho + p I/2^k."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"strength {p!r} outside [0, 1]")
    dim = check_dimension(2**n_qubits)
    q = p / 4**n_qubits
    ops = [np.sqrt(1.0 - p + q) * np.eye(dim, dtype=complex)]
    for letters in product("IXYZ", repeat=n_qubits):
        if all(ch == "I" for ch in letters):
            continue
        ops.append(np.sqrt(q) * pauli_string_matrix("".join(letters)))
    return KrausChannel(np.array(ops), True)


def dephasing_channel(p: float) -> KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"strength {p!r} outside [0, 1]")
    return KrausChannel(np.array([np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_Z]), True)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"strength {gamma!r} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(np.array([k0, k1]), True)


def noise_channel(noise: NoiseModel, targets, n_qubits: int) -> KrausChannel | None:
    """Full-register noise channel inserted after a gate on ``targets``.

    Returns None when the model is trivial. Local depolarizing acts
    jointly on the gate's targets; dephasing and amplitude damping act
    independently per target qubit; global depolarizing hits the whole
    register regardless of targets.
    """
    if noise.is_trivial:
        return None
    targets = [int(t) for t in targets]
    if noise.kind == "depolarizing-global":
        return depolarizing_channel(n_qubits, noise.strength)
    if noise.kind == "depolarizing-local":
        local = depolarizing_channel(len(targets), noise.strength)
        ops = np.array(
            [embed_operator(k, targets, n_qubits) for k in local.ops]
        )
        return KrausChannel(ops, True)
    if noise.kind == "dephasing":
        per_qubit = dephasing_channel(noise.strength)
    else:
        per_qubit = amplitude_damping_channel(noise.strength)
    out = None
    for t in targets:
        ops = np.array([embed_operator(k, [t], n_qubits) for k in per_qubit.ops])
        ch = KrausChannel(ops, True)
        out = ch if out is None else compose_channels(out, ch)
    return out


def circuit_gate_channels(circ: GateCircuit, noise: NoiseModel) -> list[KrausChannel]:
    """One channel per gate (noise already composed after the unitary)."""
    steps = []
    for g in circ.gates:
        u = embed_operator(g.matrix(), g.qubits, circ.n_qubits)
        ch = unitary_channel(u)
        nz = noise_channel(noise, g.qubits, circ.n_qubits)
        if nz is not None:
            ch = compose_channels(ch, nz)
        steps.append(ch)
    return steps


def noisy_circuit_channel(circ: GateCircuit, noise: NoiseModel) -> KrausChannel:
    """Materialize the whole noisy circuit as one channel.

    Kraus counts grow multiplicatively under composition, so the running
    set is recompressed to its minimal form whenever it passes dim**2.
    """
    out = identity_channel(circ.dim)
    for step in circuit_gate_channels(circ, noise):
        out = compose_channels(out, step)
        if out.num_ops > out.dim**2:
            out = compress_channel(out)
    return out


def apply_local(mat: np.ndarray, ops, targets, nq: int) -> np.ndarray:
    """sum_k (op_k on targets) mat (op_k on targets)^dag, without embedding.

    ``ops`` is a short stack of 2^k x 2^k operators (one gate) acting on
    the listed qubits of an nq-qubit density matrix, qubit 0 most
    significant. The operators' own factors map to ``targets`` in order,
    so targets may be unordered and non-adjacent. The stack is folded
    into one 4^k x 4^k ``superoperator``, contracted once into the
    targets' row and column axes of the ``[2] * 2nq`` view
    (``linalg.contract``). Returns a new row-major matrix; a call holds
    about three matrices.
    """
    axes = [*targets, *(nq + q for q in targets)]
    return contract(mat.reshape([2] * (2 * nq)), superoperator(ops), axes).reshape(mat.shape)


def _cyclic_rows(n_copies: int, dim: int) -> np.ndarray:
    """The row of C's one nonzero entry in each column, C the cyclic shift
    of ``cyclic_permutation``."""
    cols = np.arange(dim**n_copies)
    lead = dim ** (n_copies - 1)
    return (cols % lead) * dim + cols // lead


def cyclic_permutation(n_copies: int, dim: int) -> np.ndarray:
    """Permutation C on dim**n_copies with C|k_1 k_2 ... k_M> = |k_2 ... k_M k_1>.

    Contracting it against a product operator chains the factors:
    Tr(C (A_1 (x) ... (x) A_M)) = Tr(A_1 A_2 ... A_M).
    """
    if n_copies < 1:
        raise ValueError(f"need n_copies >= 1, got {n_copies}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    total = check_dimension(dim**n_copies)
    c = np.zeros((total, total), dtype=complex)
    c[_cyclic_rows(n_copies, dim), np.arange(total)] = 1.0
    return c


def register_swap(n_copies: int, dim: int, r: int) -> np.ndarray:
    """Permutation exchanging registers r and r+1 of an n_copies product."""
    if not 0 <= r < n_copies - 1:
        raise ValueError(f"register index {r} out of range for {n_copies} copies")
    total = check_dimension(dim**n_copies)
    cols = np.arange(total)
    base_r = dim ** (n_copies - 1 - r)
    base_s = dim ** (n_copies - 2 - r)
    k_r = (cols // base_r) % dim
    k_s = (cols // base_s) % dim
    rows = cols + (k_s - k_r) * base_r + (k_r - k_s) * base_s
    p = np.zeros((total, total), dtype=complex)
    p[rows, cols] = 1.0
    return p


def fredkin_matrix() -> np.ndarray:
    """Controlled qubit swap, control on the most significant qubit."""
    out = np.eye(8, dtype=complex)
    out[5, 5] = out[6, 6] = 0.0
    out[5, 6] = out[6, 5] = 1.0
    return out


def controlled_register_swap(n_qubits: int):
    """Controlled swap of two n-qubit registers, plus its Fredkin factorization.

    Returns (matrix, triples): the unitary on 1 + 2n qubits (control most
    significant) and the list of (control, qubit_a, qubit_b) Fredkin
    targets whose product equals it. One controlled register swap costs
    n qubit-level controlled swaps in depth 1.
    """
    if n_qubits < 1:
        raise ValueError(f"register width must be >= 1, got {n_qubits}")
    dim_reg = 2**n_qubits
    check_dimension(2 ** (1 + 2 * n_qubits))
    swap = register_swap(2, dim_reg, 0)
    p0 = zero_projector(2)
    mat = np.kron(p0, np.eye(dim_reg**2, dtype=complex)) + np.kron(
        np.eye(2, dtype=complex) - p0, swap
    )
    triples = [(0, 1 + i, 1 + n_qubits + i) for i in range(n_qubits)]
    return mat, triples


def permutation_contraction(obs_mat, factors):
    """Tr(C_M O_1 (A_1 (x) ... (x) A_M)) evaluated on the composite space.

    The dense oracle for the reduced chain of ``schemes.multicopy_estimate``.
    """
    first = obs_mat @ factors[0]
    big = kron_all([first] + list(factors[1:]))
    # Tr(C X) picks one entry of X per column of the permutation
    rows = _cyclic_rows(len(factors), factors[0].shape[0])
    return complex(big[np.arange(rows.size), rows].sum())


def verified_composite_contraction(rb_m, obs_mat, rho, n_copies):
    """Tr(rho_bar^(x)M C_M O_1 rho^(x)M) on the composite space.

    The dense oracle for the verified chain of ``schemes.combined_estimate``.
    """
    dim = rho.shape[0]
    c = cyclic_permutation(n_copies, dim)
    o1 = np.kron(obs_mat, np.eye(dim ** (n_copies - 1), dtype=complex))
    return complex(np.trace(rb_m @ c @ o1 @ kron_power(rho, n_copies)))


def forward_outcomes(
    kind: str, circ: GateCircuit, noise: NoiseModel, obs, copies: int, machinery, dual_noise=None
):
    """Outcome probabilities (+1, -1 and, verified, 0) of every unit of an
    ancilla-scheme pipeline, the denominator last, from a forward
    evolution of the whole composite circuit: prefix Hadamard, controlled
    Pauli string, noisy Fredkins, inverse circuits when verifying (under
    ``dual_noise`` when given, else ``noise``), final Hadamard. The oracle
    for ``schemes.build_pipeline``'s readout, on at most 7 composite
    qubits."""
    n = circ.n_qubits
    nq = 1 + copies * n
    if nq > 7:
        raise ValueError(f"a {nq}-qubit composite is wider than 7")
    verify = kind in ("state-verification", "combined")
    inverse_noise = dual_noise or noise
    p0 = zero_projector(2)
    rho = prepare_noisy_state(circ, noise).matrix
    base = np.kron(p0, kron_power(rho, copies))
    base = apply_noise(apply_local(base, [gate_matrix("H")], [0], nq), machinery, [0], nq)
    units = []
    for _, string in obs.terms:
        ctrl = np.kron(p0, np.eye(2**n)) + np.kron(np.eye(2) - p0, pauli_string_matrix(string))
        units.append(apply_local(base, [ctrl], range(1 + n), nq))
    out = []
    for mat in units + [base]:
        for r in range(copies - 1):
            for i in range(n):
                targets = [0, 1 + r * n + i, 1 + (r + 1) * n + i]
                mat = apply_local(mat, [fredkin_matrix()], targets, nq)
                mat = apply_noise(mat, machinery, targets, nq)
        for offset in range(1, nq, n) if verify else ():
            for g in inverse_circuit(circ).gates:
                targets = [offset + q for q in g.qubits]
                mat = apply_local(mat, [g.matrix()], targets, nq)
                if inverse_noise.kind == "depolarizing-global":
                    # global noise on the inverse circuits hits their register alone
                    mat = depolarize(mat, inverse_noise.strength, range(offset, offset + n), nq)
                else:
                    mat = apply_noise(mat, inverse_noise, targets, nq)
        mat = apply_noise(apply_local(mat, [gate_matrix("H")], [0], nq), machinery, [0], nq)
        pops = np.diagonal(mat).real.reshape(2, -1)
        kept = pops[:, 0] if verify else pops.sum(axis=1)
        out.append([kept[0], kept[1]] + ([pops.sum() - kept.sum()] if verify else []))
    return out


def _worst(trials) -> list:
    """Each residual's largest value over the trials, 0.0 at least;
    ``trials`` yields one tuple of residuals per trial."""
    return [max(0.0, *column) for column in zip(*trials)]


def _cyclic_trial(rng):
    """Tr(C_M O_1 rho^(x)M) against Tr(O rho^M)."""
    d = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    if d**m > 256:
        return (0.0,)
    rho = random_density(rng, d).matrix
    obs = random_hermitian(rng, d)
    got = permutation_contraction(obs, [rho] * m)
    want = complex(np.trace(obs @ np.linalg.matrix_power(rho, m)))
    return (abs(got - want),)


def _verified_trial(rng):
    """Tr(rbar^(x)M C_M O_1 rho^(x)M) against Tr(O (rho rbar)^M), rbar
    positive but not normalized."""
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    if d**m > 256:
        return (0.0,)
    rho = random_density(rng, d).matrix
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rbar = z @ z.conj().T / d
    obs = random_hermitian(rng, d)
    want = complex(np.trace(obs @ np.linalg.matrix_power(rho @ rbar, m)))
    got = verified_composite_contraction(kron_power(rbar, m), obs, rho, m)
    return (abs(got - want),)


def _adjoint_trial(rng):
    """Tr(N^dag(a) b) against Tr(a N(b)) for a noisy circuit's channel N."""
    circ = random_circuit(rng, int(rng.integers(1, 3)), 4)
    ch = noisy_circuit_channel(circ, NoiseModel("depolarizing-local", 0.05))
    a = random_hermitian(rng, circ.dim)
    b = random_hermitian(rng, circ.dim)
    lhs = np.trace(kraus_sum(adjoint_channel(ch), a) @ b)
    return (abs(complex(lhs - np.trace(a @ kraus_sum(ch, b)))),)


def _reconstruction_trial(rng, kind: str):
    """The noisy and dual states against the whole-register channels."""
    # n = 3 and 8 gates reach a one-qubit step carried past a disjoint gate
    n = int(rng.integers(1, 4))
    circ = random_circuit(rng, n, 8)
    noise = NoiseModel(kind, 0.1)
    zero = DensityOperator.computational_zero(n).matrix
    rho = prepare_noisy_state(circ, noise).matrix
    want = apply_channel(noisy_circuit_channel(circ, noise), zero).matrix
    rbar = dual_state(circ, noise).matrix
    ch = adjoint_channel(noisy_circuit_channel(inverse_circuit(circ), noise))
    return float(np.max(np.abs(rho - want))), float(np.max(np.abs(rbar - kraus_sum(ch, zero))))


def _split_trial(rng):
    """The symmetric, antisymmetric and product measurements of S and a
    Pauli string against their traces."""
    n = int(rng.integers(1, 3))
    g = PauliObservable.single("".join("IXYZ"[rng.integers(4)] for _ in range(n)))
    s = random_hermitian(rng, 2**n)
    rho = random_density(rng, 2**n).matrix
    gm = g.matrix()
    want_sym = complex(np.trace((s @ gm + gm @ s) / 2.0 @ rho))
    want_anti = 1j * complex(np.trace((s @ gm - gm @ s) / 2.0 @ rho))
    return (
        abs(symmetric_product_measure(s, g, rho) - want_sym),
        abs(antisymmetric_product_measure(s, g, rho) - want_anti),
        abs(product_expectation(s, g, rho) - complex(np.trace(s @ gm @ rho))),
    )


def _hadamard_trial(rng):
    """The real and imaginary Hadamard tests against Tr(S U rho)."""
    d = int(2 ** rng.integers(1, 4))
    u = random_unitary(rng, d)
    s = random_hermitian(rng, d)
    rho = random_density(rng, d).matrix
    got = complex(hadamard_test(u, s, rho, "real"), hadamard_test(u, s, rho, "imag"))
    return (abs(got - complex(np.trace(s @ u @ rho))),)


def _outcome_trials(circ: GateCircuit):
    """Every unit's outcome probabilities against ``forward_outcomes``, nq = 7
    at most, under every machinery kind, with the inverse circuits under the
    state's noise and under other noise."""
    noise = NoiseModel("amplitude-damping", 0.1)
    obs = parse_observable("0.6*ZY + 0.4*XI")
    kinds = (("multi-copy", 3), ("state-verification", 1), ("combined", 3))
    duals = (None, NoiseModel("dephasing", 0.07))
    for (kind, copies), machinery_kind, dual in product(kinds, NOISE_KINDS, duals):
        machinery = NoiseModel(machinery_kind, 0.05)
        pipe = build_pipeline(kind, circ, noise, obs, copies, machinery, dual)
        want = forward_outcomes(kind, circ, noise, obs, copies, machinery, dual)
        for unit, probs in zip((*pipe.numerator_terms, pipe.denominator), want):
            yield (float(np.max(np.abs(unit.state - probs))),)


def self_checks(seed: int):
    """Yield (name, max residual) for each engine-against-oracle check, the
    ten in a fixed order, each check's trials drawn from one
    ``default_rng(seed)`` in turn."""
    rng = np.random.default_rng(seed)
    trials = range(25)
    yield "cyclic-contraction", *_worst(_cyclic_trial(rng) for _ in trials)
    yield "verified-contraction", *_worst(_verified_trial(rng) for _ in trials)
    yield "adjoint-pairing", *_worst(_adjoint_trial(rng) for _ in trials)
    state, dual = _worst(_reconstruction_trial(rng, kind) for kind in NOISE_KINDS * 2)
    yield "noisy-state-reconstruction", state
    yield "dual-state-reconstruction", dual
    names = ("projective-split", "rotation-split", "product-reconstruction")
    yield from zip(names, _worst(_split_trial(rng) for _ in trials))
    yield "hadamard-test", *_worst(_hadamard_trial(rng) for _ in trials)
    yield "pipeline-outcomes", *_worst(_outcome_trials(random_circuit(rng, 2, 6)))
