"""Gate-level noise models, the local-contraction engine and the dual state.

States evolve through one local-contraction engine that never builds a
register-wide operator:

* ``linalg.contract`` applies a 4^k x 4^k superoperator (a fused step:
  a gate's superoperator, its local noise folded in, with the pending
  one-qubit steps on its qubits taken in) to the targets' row and
  column axes of the register's ``[2] * 2n`` tensor in one matrix
  product. The register stays that tensor from step to step,
  each product a transposed view, so a step makes one copy: the next
  step's reshape;
* ``depolarize`` applies depolarizing noise on any qubit subset in
  closed form, ``(1-p) X + p I/d_k (x) Tr_targets X``, which equals the
  4^k-operator Pauli Kraus sum, through linalg's one partial trace and
  its embedding;
* ``apply_noise`` maps a ``NoiseModel`` onto ``depolarize`` and, for
  dephasing and amplitude damping, one 4 x 4 superoperator per target
  (``_qubit_superoperator``) contracted into its row and column axes, in
  the Schrodinger or (``adjoint=True``) the Heisenberg picture.

Every noise function returns its result as a new matrix (trivial noise
returns the input) and never writes its input, so a read-only matrix, a
transpose or a strided slice serves as well as any.

``prepare_noisy_state`` runs the noisy circuit on |0...0><0...0| and
``dual_state`` runs the adjoint of the noisy inverse circuit backwards
from the same projector: the circuit's own gates, each after its
adjoint noise. Each gate and its local noise are one fused step
(``_gate_steps``). A fixed gate's superoperator is a constant of the
module, built once at import (``_FIXED_STEPS``); a rotation (RX, RY, RZ)
builds its own with ``superoperator`` in each evolution. The noise part
(``noise_superoperator``) is a closed form: ``_qubit_superoperator`` on
every qubit, or the depolarizing ``(1-p) I + p/2^k |vec I><vec I|``;
global depolarizing is one register-wide ``depolarize`` per evolution
(``_global_layer``). Both wrap their result without the eigenvalue
check, since an evolution keeps it PSD.
A pipeline (``schemes.build_pipeline``) never contracts a composite: its
readout blocks reduce to register matrices. Dual states are PSD but not
normalized in general (they are exactly trace-1 when every inserted
channel is unital).

The dense whole-register Kraus channels the engine is checked against
live in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .circuits import ANGLE_GATES, GATE_ARITY, GateCircuit, gate_matrix
from .linalg import DensityOperator, _add_embedded, contract, partial_trace, zero_projector

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


def _fixed_steps() -> MappingProxyType:
    """A read-only {name: superoperator of the gate} for every gate
    without an angle, each matrix read-only too."""
    table = {}
    for name in GATE_ARITY:
        if name not in ANGLE_GATES:
            sup = superoperator([gate_matrix(name)])
            sup.setflags(write=False)
            table[name] = sup
    return MappingProxyType(table)


# the fixed gates' superoperators are constants, built once here; only the
# rotations build theirs per evolution (``_gate_steps``)
_FIXED_STEPS = _fixed_steps()


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


def _qubit_superoperator(noise: NoiseModel, adjoint: bool) -> np.ndarray:
    """The 4 x 4 superoperator of dephasing or amplitude damping on one qubit.

    On the 2x2 blocks X_rc of row bit r and column bit c, X_01 and X_10
    scale by s, X_11 by 1 - g, and X_00 gains g X_11. Dephasing,
    (1-p) X + p Z X Z, is s = 1 - 2p and g = 0; amplitude damping,
    K0 = diag(1, sqrt(1-g)) and K1 = sqrt(g) |0><1|, is s = sqrt(1-g).
    The matrix is real, so the adjoint is its transpose: X_11 gains g X_00.
    """
    if noise.kind == "dephasing":
        s, g = 1.0 - 2.0 * noise.strength, 0.0
    else:
        g = noise.strength
        s = np.sqrt(1.0 - g)
    sup = np.diag([1.0, s, s, 1.0 - g])
    sup[0, 3] = g
    return sup.T if adjoint else sup


def apply_noise(mat, noise: NoiseModel, targets, nq: int, adjoint: bool = False):
    """Noise inserted after a gate on ``targets`` of an nq-qubit matrix, as a new matrix.

    Local depolarizing acts jointly on the targets; dephasing and
    amplitude damping act independently per target qubit, one
    ``linalg.contract`` each; global depolarizing hits all nq qubits
    regardless of targets. ``adjoint`` applies the Heisenberg-picture
    adjoint {K^dag} instead. ``mat`` is only read; trivial noise returns
    it as it is.
    """
    if noise.is_trivial:
        return mat
    if noise.kind not in PER_QUBIT_KINDS:
        targets = range(nq) if noise.kind == "depolarizing-global" else targets
        return depolarize(mat, noise.strength, targets, nq)
    sup = _qubit_superoperator(noise, adjoint)
    t = mat.reshape((2,) * (2 * nq))
    for q in targets:
        t = contract(t, sup, [q, nq + q])
    return t.reshape(mat.shape)


def noise_superoperator(noise: NoiseModel, k: int, adjoint: bool = False) -> np.ndarray:
    """The superoperator of ``noise`` after a gate on all qubits of a k-qubit matrix.

    Per-qubit noise is the k-fold Kronecker product of
    ``_qubit_superoperator``, whose axes interleave each qubit's row and
    column bit, regrouped into the row bits, then the column bits.
    Depolarizing, local or global alike, acts on all k qubits:
    (1-p) I + p/2^k |vec I><vec I|, since Tr X = <vec I, vec X>.
    """
    d = 2**k
    if noise.is_trivial:
        return np.eye(d * d)
    if noise.kind not in PER_QUBIT_KINDS:
        vec = np.eye(d).reshape(-1)
        return (1.0 - noise.strength) * np.eye(d * d) + noise.strength / d * np.outer(vec, vec)
    sup = reduce(np.kron, [_qubit_superoperator(noise, adjoint)] * k)
    bits = [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]
    sup = sup.reshape([2] * (4 * k)).transpose(bits + [2 * k + b for b in bits])
    return sup.reshape(d * d, d * d)


def _gate_steps(gates, noise: NoiseModel, adjoint: bool):
    """Fused (superoperator, targets) steps equal to ``gates`` in the order listed.

    A gate's step is its superoperator with its local noise folded in:
    forward, the noise acts after the gate; adjoint, the adjoint noise
    acts before it. A fixed gate reads its superoperator from the
    constant ``_FIXED_STEPS``, and a rotation builds its own; each distinct
    gate (name and angle) folds in its noise once per call, and the noise
    superoperators are built once per gate size. Global depolarizing is
    left to the caller.

    A one-qubit step is held pending on its qubit, where later one-qubit
    steps multiply into it; the next step on more qubits that touches the
    qubit takes it in, right-multiplied on that qubit's input axes, and
    the steps still pending at the end come out as they are. Steps on
    disjoint qubits commute, so the fused steps make the same map with
    one contraction per two-qubit gate and one per qubit whose last gate
    acts on it alone.
    """
    local = not noise.is_trivial and noise.kind != "depolarizing-global"
    derived = {}
    built = {}
    pending = {}
    for g in gates:
        k = len(g.qubits)
        sup = built.get((g.name, g.angle))
        if sup is None:
            sup = _FIXED_STEPS.get(g.name)
            if sup is None:
                sup = superoperator([g.matrix()])
            if local:
                if k not in derived:
                    derived[k] = noise_superoperator(noise, k, adjoint)
                sup = sup @ derived[k] if adjoint else derived[k] @ sup
            built[g.name, g.angle] = sup
        if k == 1:
            q = g.qubits[0]
            pending[q] = sup @ pending[q] if q in pending else sup
            continue
        for i, q in enumerate(g.qubits):
            if q in pending:
                # input axes 2k + i and 3k + i hold qubit i's row and column bits
                view = sup.reshape([2] * (4 * k))
                sup = contract(view, pending.pop(q).T, [2 * k + i, 3 * k + i]).reshape(sup.shape)
        yield sup, g.qubits
    for q, sup in pending.items():
        yield sup, (q,)


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
    """|0...0><0...0| on n qubits through ``gates`` in the order listed,
    one contraction per fused step (``_gate_steps``) on the ``[2] * 2n``
    tensor; global noise is one layer at the end (``_global_layer``), on
    the row-major matrix the tensor is reshaped into."""
    t = zero_projector(2**n).reshape([2] * (2 * n))
    for sup, targets in _gate_steps(gates, noise, adjoint):
        t = contract(t, sup, [*targets, *(n + q for q in targets)])
    mat = t.reshape(2**n, 2**n)
    p = _global_layer(noise, len(gates))
    return depolarize(mat, p, range(n), n) if p else mat


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
