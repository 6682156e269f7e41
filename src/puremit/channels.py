"""Gate-level noise models, the register evolution and the dual state.

A register evolves as a real tensor of Pauli coefficients and never as a
register-wide operator:

* the register is the ``[4] * n`` tensor r of rho = sum_P r_P P, each
  qubit's axis ordered I, X, Y, Z, qubit 0 most significant; the start
  state |0...0><0...0| is the outer product of [1/2, 0, 0, 1/2];
* each fused step (``_gate_steps``: a gate, its local noise folded in,
  with the pending one-qubit steps on its qubits taken in) is a real
  Pauli transfer matrix (PTM), R[P, Q] = Tr(P E(Q)) / 2^k, applied to
  its targets' axes by ``linalg.contract`` in one real matrix product: a
  two-qubit step is a 16 x 16 GEMM. The tensor stays a transposed view
  from step to step, so a step makes one copy: the next step's reshape;
* at the end, ceil(n/2) contractions with the constant C (x) C, where C
  (``_PAULI_ENTRIES``) maps a qubit's I, X, Y, Z to its 2 x 2 entries
  00, 01, 10 and 11, and one transpose-copy give the row-major complex
  matrix.

A fixed gate's PTM is a constant of the module, built once at import
(``_FIXED_STEPS``) as the basis change of its superoperator; a
rotation's is a closed-form plane rotation (``_rotation_ptm``), and the
noise a step folds in is a closed form too (``_noise_ptm``). Global
depolarizing is one register-wide layer per evolution
(``_global_layer``), which scales every coefficient but the all-I one.
So an evolution calls neither ``superoperator`` nor a noise function,
and both states are wrapped without the eigenvalue check, since an
evolution keeps them PSD.

``prepare_noisy_state`` runs the noisy circuit on |0...0><0...0| and
``dual_state`` runs the adjoint of the noisy inverse circuit backwards
from the same projector: the circuit's own gates, each after its
adjoint noise, whose PTM is the transpose. Dual states are PSD but not
normalized in general (they are exactly trace-1 when every inserted
channel is unital).

Noise on a matrix, outside the evolution:

* ``depolarize`` applies depolarizing noise on any qubit subset in
  closed form, ``(1-p) X + p I/d_k (x) Tr_targets X``, which equals the
  4^k-operator Pauli Kraus sum, through linalg's one partial trace and
  its embedding;
* ``apply_noise`` maps a ``NoiseModel`` onto ``depolarize`` and, for
  dephasing and amplitude damping, one 4 x 4 ``noise_superoperator``
  per target contracted into its row and column axes, in the
  Schrodinger or (``adjoint=True``) the Heisenberg picture;
* ``noise_superoperator`` is ``_noise_ptm`` changed back to the
  row-major basis, so each noise kind is defined once.

Every noise function returns its result as a new matrix (trivial noise
returns the input) and never writes its input, so a read-only matrix, a
transpose or a strided slice serves as well as any. A pipeline
(``schemes.build_pipeline``) never contracts a composite: its readout
blocks reduce to register matrices.

The dense whole-register Kraus channels the engine is checked against
live in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .circuits import ANGLE_GATES, GATE_ARITY, I2, PAULI_X, PAULI_Y, PAULI_Z, GateCircuit, gate_matrix
from .linalg import DensityOperator, _add_embedded, contract, partial_trace

# the kinds that act independently on each target qubit
PER_QUBIT_KINDS = ("dephasing", "amplitude-damping")
NOISE_KINDS = ("none", "depolarizing-local", "depolarizing-global", *PER_QUBIT_KINDS)


@dataclass(frozen=True)
class NoiseModel:
    """Gate-level noise: a kind from NOISE_KINDS and a strength in [0, 1]."""

    kind: str
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}")
        s = float(self.strength)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"noise strength {s!r} outside [0, 1]")
        object.__setattr__(self, "strength", s)

    @property
    def is_trivial(self) -> bool:
        return self.kind == "none" or self.strength == 0.0


NO_NOISE = NoiseModel("none", 0.0)


def superoperator(ops) -> np.ndarray:
    """sum_k op_k (x) conj(op_k), the 4^k x 4^k superoperator of a Kraus stack.

    Rows and columns index a k-qubit matrix flattened row-major (its row
    bits, then its column bits), so ``sup @ x.reshape(-1)`` is
    ``sum_k op_k x op_k^dag`` flattened the same way.
    """
    ops = np.asarray(ops)
    d = ops.shape[-1]
    # entry [(a, b), (c, d)] is sum_k op_k[a, c] conj(op_k[b, d])
    terms = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]
    return terms.sum(axis=0).reshape(d * d, d * d)


# a qubit's Pauli coefficients (I, X, Y, Z) to its 2 x 2 entries 00, 01, 10
# and 11 (row bit, column bit): column P is P flattened row-major
_PAULI_ENTRIES = np.ascontiguousarray(np.array([I2, PAULI_X, PAULI_Y, PAULI_Z]).reshape(4, 4).T)
# the same for two qubits, C (x) C, one contraction per pair of axes
_PAIR_ENTRIES = np.kron(_PAULI_ENTRIES, _PAULI_ENTRIES)
_PAULI_ENTRIES.setflags(write=False)
_PAIR_ENTRIES.setflags(write=False)


def _rows_first(k: int) -> list:
    """The axis order that takes k interleaved (row, column) axis pairs to
    the k row axes, then the k column axes."""
    return [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]


def _pauli_basis(k: int) -> np.ndarray:
    """B, the 4^k x 4^k matrix whose column P is the k-qubit Pauli string P
    flattened row-major, qubit 0 most significant in both.

    The k-fold Kronecker product of ``_PAULI_ENTRIES`` indexes its rows by
    each qubit's (row, column) bits in turn; they are regrouped into the
    row bits, then the column bits. B^dag B = 2^k I.
    """
    basis = reduce(np.kron, [_PAULI_ENTRIES] * k).reshape([2] * (2 * k) + [4**k])
    return basis.transpose([*_rows_first(k), 2 * k]).reshape(4**k, 4**k)


def _fixed_steps() -> MappingProxyType:
    """A read-only {name: PTM of the gate} for every gate without an
    angle, each matrix read-only too: B^dag S B / 2^k of the gate's
    superoperator S (``_pauli_basis``), real, since S maps Hermitian
    matrices to Hermitian ones."""
    bases = {k: _pauli_basis(k) for k in set(GATE_ARITY.values())}
    table = {}
    for name, k in GATE_ARITY.items():
        if name not in ANGLE_GATES:
            basis = bases[k]
            ptm = (basis.conj().T @ superoperator([gate_matrix(name)]) @ basis).real / 2**k
            ptm.setflags(write=False)
            table[name] = ptm
    return MappingProxyType(table)


# the fixed gates' PTMs are constants, built once here; a rotation's is a
# closed form (``_rotation_ptm``)
_FIXED_STEPS = _fixed_steps()

# the two Pauli axes each rotation turns, in order: RX(theta) takes Y to
# cos(theta) Y + sin(theta) Z, RY takes Z towards X and RZ X towards Y
_ROTATION_PLANES = {"RX": (2, 3), "RY": (3, 1), "RZ": (1, 2)}


def _rotation_ptm(name: str, theta: float) -> np.ndarray:
    """The PTM of RX, RY or RZ(theta) = exp(-i theta P / 2): a plane
    rotation by theta of the two Pauli axes other than P, fixing I and P."""
    a, b = _ROTATION_PLANES[name]
    c, s = np.cos(theta), np.sin(theta)
    ptm = np.eye(4)
    ptm[a, a] = ptm[b, b] = c
    ptm[b, a], ptm[a, b] = s, -s
    return ptm


def _noise_ptm(noise: NoiseModel, k: int, adjoint: bool) -> np.ndarray:
    """The PTM of ``noise`` after a gate on all qubits of a k-qubit register.

    Per-qubit noise is the k-fold Kronecker product, qubit 0 most
    significant as in the Pauli order, of one qubit's
    [[1, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [g, 0, 0, 1 - g]]: X and Y
    scale by s, Z by 1 - g, and I gains g Z. Dephasing, (1-p) X + p Z X Z,
    is s = 1 - 2p and g = 0; amplitude damping, K0 = diag(1, sqrt(1-g))
    and K1 = sqrt(g) |0><1|, is s = sqrt(1-g). Depolarizing, local or
    global alike, acts on all k qubits: every string but I scales by
    1 - p. The PTM is real, so the adjoint is its transpose.
    """
    if noise.is_trivial:
        return np.eye(4**k)
    if noise.kind not in PER_QUBIT_KINDS:
        scale = np.full(4**k, 1.0 - noise.strength)
        scale[0] = 1.0
        return np.diag(scale)
    if noise.kind == "dephasing":
        s, g = 1.0 - 2.0 * noise.strength, 0.0
    else:
        g = noise.strength
        s = np.sqrt(1.0 - g)
    one = np.diag([1.0, s, s, 1.0 - g])
    one[3, 0] = g
    # axes (out_0, in_0, out_1, in_1, ...), regrouped outputs first
    ptm = reduce(np.multiply.outer, [one] * k).transpose(_rows_first(k)).reshape(4**k, 4**k)
    return ptm.T if adjoint else ptm


def noise_superoperator(noise: NoiseModel, k: int, adjoint: bool = False) -> np.ndarray:
    """The superoperator of ``noise`` after a gate on all qubits of a k-qubit matrix.

    ``_noise_ptm`` in the row-major basis, B R B^dag / 2^k
    (``_pauli_basis``). Every noise kind maps a real matrix to a real
    one, so the superoperator is real.
    """
    basis = _pauli_basis(k)
    return (basis @ _noise_ptm(noise, k, adjoint) @ basis.conj().T).real / 2**k


def depolarize(mat, p: float, targets, nq: int) -> np.ndarray:
    """(1-p) X + p I/d_k (x) Tr_targets X for the listed qubits, as a new matrix.

    Exact for the 4^k-operator Pauli Kraus form of
    ``reference.depolarizing_channel(k, p)``, at the cost of one
    ``linalg.partial_trace``: the reduced matrix, times p/d_k, goes into
    the target-diagonal entries of (1-p) X (``linalg._add_embedded``).
    Self-adjoint, so it serves the Heisenberg picture unchanged.
    """
    dims = [2] * nq
    rest = sorted(set(range(nq)).difference(map(int, targets)))
    out = mat * (1.0 - p)
    _add_embedded(out, partial_trace(mat, dims, rest) * (p / 2 ** (nq - len(rest))), dims, rest)
    return out


def apply_noise(mat, noise: NoiseModel, targets, nq: int, adjoint: bool = False):
    """Noise inserted after a gate on ``targets`` of an nq-qubit matrix, as a new matrix.

    Local depolarizing acts jointly on the targets; dephasing and
    amplitude damping act independently per target qubit, one 4 x 4
    ``noise_superoperator`` contracted into its row and column axes;
    global depolarizing hits all nq qubits regardless of targets.
    ``adjoint`` applies the Heisenberg-picture adjoint {K^dag} instead.
    ``mat`` is only read; trivial noise returns it as it is.
    """
    if noise.is_trivial:
        return mat
    if noise.kind not in PER_QUBIT_KINDS:
        targets = range(nq) if noise.kind == "depolarizing-global" else targets
        return depolarize(mat, noise.strength, targets, nq)
    sup = noise_superoperator(noise, 1, adjoint)
    t = mat.reshape((2,) * (2 * nq))
    for q in targets:
        t = contract(t, sup, [q, nq + q])
    return t.reshape(mat.shape)


def _gate_steps(gates, noise: NoiseModel, adjoint: bool):
    """Fused (PTM, targets) steps equal to ``gates`` in the order listed.

    A gate's step is its PTM with its local noise folded in: forward, the
    noise acts after the gate; adjoint, the adjoint noise acts before it.
    A fixed gate reads its PTM from the constant ``_FIXED_STEPS`` and a
    rotation's is ``_rotation_ptm``; each distinct gate (name and angle)
    folds in its noise once per call, and the noise PTMs are built once
    per gate size. Global depolarizing is left to the caller.

    A one-qubit step is held pending on its qubit, where later one-qubit
    steps multiply into it; the next step on more qubits that touches the
    qubit takes it in, right-multiplied on that qubit's input axis by a
    reshape and a matmul, and the steps still pending at the end come out
    as they are. Steps on disjoint qubits commute, so the fused steps make
    the same map with one contraction per two-qubit gate and one per qubit
    whose last gate acts on it alone.
    """
    local = not noise.is_trivial and noise.kind != "depolarizing-global"
    derived = {}
    built = {}
    pending = {}
    for g in gates:
        k = len(g.qubits)
        ptm = built.get((g.name, g.angle))
        if ptm is None:
            ptm = _FIXED_STEPS.get(g.name)
            if ptm is None:
                ptm = _rotation_ptm(g.name, g.angle)
            if local:
                if k not in derived:
                    derived[k] = _noise_ptm(noise, k, adjoint)
                ptm = ptm @ derived[k] if adjoint else derived[k] @ ptm
            built[g.name, g.angle] = ptm
        if k == 1:
            q = g.qubits[0]
            pending[q] = ptm @ pending[q] if q in pending else ptm
            continue
        for i, q in enumerate(g.qubits):
            if q in pending:
                # qubit i's input axis splits the columns into (4^i, 4, 4^(k-1-i))
                cols = ptm.reshape(-1, 4, 4 ** (k - 1 - i))
                ptm = (pending.pop(q).T @ cols).reshape(ptm.shape)
        yield ptm, g.qubits
    for q, ptm in pending.items():
        yield ptm, (q,)


def _global_layer(noise: NoiseModel, gates: int) -> float:
    """The strength of one register-wide depolarizing layer equal to the
    ``gates`` layers of global noise; 0 for every other kind.

    Register-wide depolarizing commutes with every unitary and fixes I, so
    its layers after G gates compose to one of strength 1 - (1-p)^G.
    """
    if noise.kind != "depolarizing-global":
        return 0.0
    return 1.0 - (1.0 - noise.strength) ** gates


def _evolve(n: int, gates, noise: NoiseModel, adjoint: bool) -> np.ndarray:
    """|0...0><0...0| on n qubits through ``gates`` in the order listed, as
    a row-major complex matrix.

    The register is its real ``[4] * n`` Pauli tensor, with one
    contraction per fused step (``_gate_steps``). Global noise is one
    layer at the end (``_global_layer``): every coefficient but the all-I
    one scales by 1 - p, and the all-I one is put back rather than
    divided by 1 - p, which fails at p = 1. Then ceil(n/2) contractions with
    ``_PAIR_ENTRIES`` (``_PAULI_ENTRIES`` for a last odd qubit) turn each
    qubit's axis into its (row, column) bits, and one transpose-copy
    orders them rows first.
    """
    # the outer product of [1/2, 0, 0, 1/2]: 2^-n where every axis reads I or Z
    r = np.zeros([4] * n)
    r[(slice(None, None, 3),) * n] = 0.5**n
    for ptm, targets in _gate_steps(gates, noise, adjoint):
        r = contract(r, ptm, targets)
    p = _global_layer(noise, len(gates))
    if p:
        ident = r[(0,) * n]
        r *= 1.0 - p
        r[(0,) * n] = ident
    for q in range(0, n, 2):
        pair = q + 1 < n
        r = contract(r, _PAIR_ENTRIES if pair else _PAULI_ENTRIES, [q, q + 1] if pair else [q])
    return r.reshape([2] * (2 * n)).transpose(_rows_first(n)).reshape(2**n, 2**n)


def prepare_noisy_state(circ: GateCircuit, noise: NoiseModel) -> DensityOperator:
    """Run the noisy circuit on |0...0><0...0| (``_evolve``)."""
    return DensityOperator._trusted(_evolve(circ.n_qubits, circ.gates, noise, adjoint=False))


def dual_state(
    circ: GateCircuit, noise: NoiseModel, dual_noise: NoiseModel | None = None
) -> DensityOperator:
    """Dual state for verification: adjoint of the noisy inverse circuit on |0...0>.

    With channels C_1..C_L making up the noisy inverse circuit (C_1 applied
    first, each a gate followed by its noise), the dual is
    C_1^dag(...C_L^dag(|0><0|)). C_L inverts the circuit's first gate g,
    and the adjoint of conjugation by g^-1 is conjugation by g, so the
    dual runs the circuit's own gates in order, each after its adjoint
    noise, as the same fused steps as the forward state. Global
    depolarizing is self-adjoint and commutes with the gates, so its L
    layers are one (``_global_layer``). ``dual_noise`` overrides the noise model on the
    inverse circuit when the mitigation run and the verification run see
    different hardware.
    """
    if dual_noise is None:
        dual_noise = noise
    mat = _evolve(circ.n_qubits, circ.gates, dual_noise, adjoint=True)
    return DensityOperator._trusted(mat, normalized=False)
