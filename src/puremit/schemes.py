"""Mitigation schemes, from operator identities to circuit-level pipelines.

The estimators all measure a ratio. At operator level:

* multi-copy: Tr(O rho^M) / Tr(rho^M), realized on hardware as the
  cyclic-permutation contraction Tr(C_M O_1 rho^(x)M).
* state verification: Tr(rho_bar O rho) / Tr(rho_bar rho) with rho_bar
  the dual state of the inverse circuit.
* combined: Tr(O (rho rho_bar)^M) / Tr((rho rho_bar)^M), degree 2M from
  M registers.

Each is a register chain rho^(M-k) (rho rho_bar)^k (``_chain``), formed
as two halves a and b and read as Tr(P a b), so the product a b is never
formed: for k = 0 or k = M the chain is a power of X = rho or
rho rho_bar, and a and b are its two half powers, which share the
lower one. Every Pauli string of O, and the all-I string of the
denominator, is read against the halves by ``observables.pauli_traces``.
The three estimators share one register check (``_registers``) and one
chain report (``_chain_report``).
Every exact ratio, theirs, a pipeline's operator ratio and exact readout,
and ``measurement.symmetrized_verified_estimate``, divides through one
guard, ``checked_ratio``: a denominator under ``DENOMINATOR_FLOOR``, or a
NaN or infinite part, raises ``VanishingDenominatorError``.

Circuit-level pipelines build the ancilla-controlled measurement circuit
explicitly (Hadamard, controlled observable, controlled register swaps,
inverse circuits, ancilla readout) so machinery noise on the swaps and
ancilla gates can be studied. With noiseless machinery the pipeline
reproduces the operator-level value. The readout is taken in the
Heisenberg picture: its effects are propagated backwards through the
shared suffix once, as ancilla-parity blocks, and reduced against the
product prefix state by one backward sweep over register pairs, which
traces each register against rho once no later Fredkin touches it; the
blocks are scored per term by the Pauli-string readers of
``observables``. With no per-qubit machinery noise the odd block is the
operator chain, which a build reads once for its readout and its
operator-level ratio, calling no estimator. Neither a composite state
nor a composite effect is ever built (``build_pipeline``). Every unit,
the plain ``raw`` readout of one Pauli string included, is read out the
same way: as +1 or -1 outcomes, plus 0 for the verified schemes
(``MeasurableTerm``). The dense composite permutations and contractions
these reductions equal live in ``reference``.

Register layout on the composite: ancilla is qubit 0 (most significant),
register r occupies qubits 1 + r*n .. n + r*n. The cyclic shift C_M
moves register k's content to register k-1 and factors into adjacent
register swaps S_{M-2,M-1} ... S_{0,1}, applied rightmost first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .channels import (
    NO_NOISE,
    PER_QUBIT_KINDS,
    NoiseModel,
    _global_layer,
    apply_noise,
    dual_state,
    noise_superoperator,
    prepare_noisy_state,
)
from .circuits import GateCircuit, circuit_state, gate_matrix
from .linalg import (
    DensityOperator,
    _add_embedded,
    as_matrix,
    check_dimension,
    partial_trace,
    zero_projector,
)
from .observables import PauliObservable, pauli_sandwiches, pauli_traces
from .reports import EstimateReport
from .resources import ResourceProfile, check_scheme_kind, resource_profile

DENOMINATOR_FLOOR = 1e-12

_MULTICOPY_KINDS = ("multi-copy", "multi-copy-recycled")


class VanishingDenominatorError(ZeroDivisionError):
    """The scheme ratio is undefined: its denominator is numerically zero or not finite."""


def checked_ratio(num: float, den: float, quantity: str) -> float:
    """num / den, raising when the denominator, named ``quantity`` in the
    message, is numerically zero or either part is NaN or infinite. The
    one guard of every exact ratio, written so that NaN fails."""
    finite = math.isfinite(num) and math.isfinite(den)
    if not (finite and abs(den) >= DENOMINATOR_FLOOR):
        why = "is numerically zero" if finite else f"or numerator {num:.3e} is not finite"
        raise VanishingDenominatorError(f"{quantity} {den:.3e} {why}")
    return num / den


def _denominator_name(kind: str, m: int) -> str:
    """What the denominator of an m-register ``kind`` ratio is called."""
    verified = {"state-verification": "state/dual overlap", "combined": "verified chain trace"}
    return verified.get(kind, f"Tr(rho^{m}) =")


def _registers(state, dual, observable: PauliObservable, kind: str, m: int):
    """(rho, rbar, n): the state and, unless None, the dual as matrices,
    checked before any product to be 2^n x 2^n registers of the
    observable's width. A raw array is scanned for a non-finite entry,
    which fails the ``kind`` ratio's guard; a ``DensityOperator`` is not,
    since both its constructors run the Hermiticity check, which NaN and
    infinities fail."""
    rho = as_matrix(state)
    rbar = None if dual is None else as_matrix(dual)
    dim = rho.shape[0]
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"register dimension {dim} is not a power of two")
    if rbar is not None and rho.shape != rbar.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, dual {rbar.shape}")
    if (observable.dim, observable.dim) != rho.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.shape}, observable "
            f"{(observable.dim, observable.dim)}"
        )
    raw = [x for x, given in ((rho, state), (rbar, dual)) if not isinstance(given, DensityOperator)]
    if not all(np.isfinite(x).all() for x in raw if x is not None):
        checked_ratio(math.nan, math.nan, _denominator_name(kind, m))
    return rho, rbar, n


def _term_sum(observable: PauliObservable, traces: np.ndarray):
    """(Tr(O X), Tr X) from the traces against X of
    ``observable.permutations()``, the all-I string last."""
    return complex(observable.coefficients @ traces[:-1]), complex(traces[-1])


def _chain(rho: np.ndarray, rbar, m: int, k: int):
    """The chain rho^(m-k) (rho rbar)^k, 0 <= k <= m, as two halves (a, b)
    with a b the chain, b None when a is the whole chain;
    ``pauli_traces(perms, a, b)`` reads Tr(P chain) = Tr(P a b) at O(d^2)
    per string. For k = 0 or k = m the chain is X^m, X = rho or rho rbar:
    a = X^ceil(m/2) and b = X^floor(m/2), the same array when m is even,
    and verification (k = m = 1) is (rho, rbar) with no product. The
    mixed family 0 < k < m is (rho, tail), the tail the product after
    the first rho. ``rbar`` is read only when k >= 1."""
    if k == m == 1:
        return rho, rbar
    if 0 < k < m:
        return rho, reduce(np.matmul, ([rho] * (m - k) + [rho, rbar] * k)[1:])
    x = rho if k == 0 else rho @ rbar
    if m == 1:
        return x, None
    low = np.linalg.matrix_power(x, m // 2)
    return (low @ x if m % 2 else low), low


def _chain_report(
    kind: str, observable: PauliObservable, rho, rbar, m: int, k: int, resources, **extra
) -> EstimateReport:
    """The estimate Re Tr(O X) / Re Tr X for the chain X = rho^(m-k)
    (rho rbar)^k, every string of O and the all-I string read once
    against the chain's halves (``_chain``)."""
    traces = pauli_traces(observable.permutations(), *_chain(rho, rbar, m, k))
    num, den = _term_sum(observable, traces)
    ratio = checked_ratio(num.real, den.real, _denominator_name(kind, m))
    return EstimateReport(
        kind=kind,
        ratio=ratio,
        numerator=num.real,
        denominator=den.real,
        resources=resources,
        exact_ratio=ratio,
        imag_residual=float(max(abs(num.imag), abs(den.imag))),
        **extra,
    )


def multicopy_estimate(
    state, observable: PauliObservable, n_copies: int, kind: str = "multi-copy"
) -> EstimateReport:
    """Purified expectation from M copies: Tr(O rho^M) / Tr(rho^M).

    Read as Tr(O rho^ceil(M/2) rho^floor(M/2)), so rho^M is never formed;
    this equals the cyclic permutation contraction on the M-copy composite
    (``reference.permutation_contraction``). ``kind`` may be
    "multi-copy-recycled" to account two registers with serialized swaps
    instead of M registers in depth 1.
    """
    if kind not in _MULTICOPY_KINDS:
        raise ValueError(f"kind must be one of {_MULTICOPY_KINDS}, got {kind!r}")
    if n_copies < 1:
        raise ValueError(f"need n_copies >= 1, got {n_copies}")
    rho, _, n_qubits = _registers(state, None, observable, kind, n_copies)
    resources = resource_profile(kind if n_copies >= 2 else "raw", n_copies, n_qubits)
    return _chain_report(kind, observable, rho, None, n_copies, 0, resources)


def state_verification_estimate(state, dual, observable: PauliObservable) -> EstimateReport:
    """Verified expectation Re Tr(rho_bar O rho) / Tr(rho_bar rho).

    ``dual`` is the (possibly non-normalized) dual state; with an ideal
    dual equal to rho this reduces to degree-2 purification. Read as
    Tr(O rho rho_bar), O(d^2) per string.
    """
    rho, rbar, n_qubits = _registers(state, dual, observable, "state-verification", 1)
    resources = resource_profile("state-verification", 2, n_qubits)
    return _chain_report("state-verification", observable, rho, rbar, 1, 1, resources)


def combined_estimate(
    state,
    dual,
    observable: PauliObservable,
    n_copies: int,
    verified_copies: int | None = None,
) -> EstimateReport:
    """Degree-2M estimate Tr(O (rho rho_bar)^M) / Tr((rho rho_bar)^M).

    With ``verified_copies`` = k < M only the last k registers carry the
    inverse-circuit verification, giving the odd-degree family
    Tr(O rho^(M-k) (rho rho_bar)^k) at operator level. The chain equals
    the composite contraction Tr(rho_bar^(x)M C_M O_1 rho^(x)M) for
    k = M (``reference.verified_composite_contraction``).
    """
    if n_copies < 1:
        raise ValueError(f"need n_copies >= 1, got {n_copies}")
    k = n_copies if verified_copies is None else int(verified_copies)
    if not 0 <= k <= n_copies:
        raise ValueError(f"verified_copies {k} outside 0..{n_copies}")
    rho, rbar, n_qubits = _registers(state, dual, observable, "combined", n_copies)
    # the odd-degree family takes the machinery of the full combined scheme
    resources = replace(resource_profile("combined", 2 * n_copies, n_qubits), degree=n_copies + k)
    return _chain_report(
        "combined", observable, rho, rbar, n_copies, k, resources,
        details={"verified_copies": k},
    )


# ---------------------------------------------------------------------------
# circuit-level pipelines


@dataclass(frozen=True)
class MeasurableTerm:
    """One measurement setting: coefficient * observable . state.

    ``state`` holds the probabilities of the setting's outcomes and
    ``observable`` the value each outcome reads. Every unit has the
    outcomes +1 and -1 and, for the verified schemes, 0 (some register
    did not project to |0...0>), with probabilities (T + Re t)/2,
    (T - Re t)/2 and the rest (``_sign_units``). A build makes one unit
    per term and one for the denominator, the all-I string. For an
    ancilla-scheme unit, +1 and -1 are the ancilla reading 0 or 1,
    t = Tr(W_Z X) for the unit's prefix state X and the readout effect W_Z
    (``build_pipeline``), and T is Tr X or, when verifying, Tr(W_P X), the
    weight of every register projecting to |0...0>. Tr X is taken from the
    factors of X, so the outcome probabilities summing to one checks those
    factors. A ``raw`` unit reads its Pauli string P as a sign on the
    n-qubit state rho: t = Tr(P rho) and T = Tr rho. ``imag_residual`` is
    |Im t|, the rounding of the evolution.
    """

    coefficient: float
    state: np.ndarray
    observable: np.ndarray
    imag_residual: float = 0.0

    def value(self) -> float:
        return float(self.observable @ self.state)


@dataclass(frozen=True)
class SchemePipeline:
    """Fully built scheme circuit, ready for exact readout or shot sampling."""

    kind: str
    degree: int
    n_copies: int
    n_qubits: int
    numerator_terms: tuple
    denominator: MeasurableTerm
    resources: ResourceProfile
    ideal_value: float
    raw_value: float
    operator_ratio: float

    def exact_report(self) -> EstimateReport:
        num = sum(term.coefficient * term.value() for term in self.numerator_terms)
        den = self.denominator.value()
        units = (*self.numerator_terms, self.denominator)
        return EstimateReport(
            kind=self.kind,
            ratio=checked_ratio(num, den, "pipeline denominator"),
            numerator=num,
            denominator=den,
            resources=self.resources,
            exact_ratio=self.operator_ratio,
            ideal_value=self.ideal_value,
            raw_value=self.raw_value,
            imag_residual=max(term.imag_residual for term in units),
            details={"evaluation": "pipeline-exact"},
        )


# outcome values of a unit: +1, -1 (for an ancilla scheme the ancilla
# reads 0 or 1), and for the verified schemes some register off |0...0>
_ANCILLA_VALUES = np.array([1.0, -1.0])
_VERIFIED_VALUES = np.array([1.0, -1.0, 0.0])


def _sign_units(observable: PauliObservable, kept, t: np.ndarray, rest=None) -> list:
    """One unit per string of ``observable.permutations()``, the
    denominator last: Re t read as +1 or -1 out of the weight ``kept``,
    plus the outcome 0 of weight ``rest`` when given."""
    values = _ANCILLA_VALUES if rest is None else _VERIFIED_VALUES
    rows = np.empty((len(t), len(values)))
    rows[:, 0] = (kept + t.real) / 2
    rows[:, 1] = (kept - t.real) / 2
    if rest is not None:
        rows[:, 2] = rest
    return [
        MeasurableTerm(float(c), row, values, float(abs(residual)))
        for c, row, residual in zip([*observable.coefficients, 1.0], rows, t.imag)
    ]


# the state of one column of a register-pair term, the qubits i of both
# registers: as they were, swapped, or each traced to I/2
_KEPT, _SWAPPED, _TRACED = range(3)

# the blocks a term adds into, by the state of its column 0: W_00 when
# kept, W_11 when swapped, both when traced
_BLOCKS = ((0,), (1,), (0, 1))


def _phase_terms(noise: NoiseModel, n: int) -> dict:
    """The even pair after one phase of the sweep, the n backward Fredkins
    of registers r and r + 1, as terms {key: (w_0, w_1)}: T_key(F (x) G),
    F = N(rbar) on register r and G = N(w_0 Y_0 + w_1 Y_1) on register
    r + 1, for the blocks rbar (x) Y_0 and rbar (x) Y_1 the phase starts
    from, added into the blocks ``_BLOCKS[key[0]]``. N is the per-qubit
    adjoint machinery noise, or the identity. T_key keeps, swaps or traces
    each column (``_KEPT``...).

    Per column, last first: local depolarizing p maps each block to
    (1-p) W_jj + p/2 T(W_00 + W_11), T the column traced; amplitude
    damping's ancilla mix adds g W_00 into (1-g) W_11; then the Fredkin
    swaps the column of W_11. So after each column a term lies in W_00
    when that column is kept, in W_11 when swapped, and in both, with
    equal weights, when traced, and each column is one step of a chain:
    ``steps[r][s]`` weighs a column in state s after one in state r
    (kept, swapped, traced). The last column starts from kept with Y_0
    and from swapped with Y_1; terms of weight zero are dropped as the
    chain grows. N reaches every qubit once, before any swap that moves
    it, so it acts on F and G.
    """
    p = noise.strength if noise.kind == "depolarizing-local" else 0.0
    g = noise.strength if noise.kind == "amplitude-damping" else 0.0
    steps = [[1 - p, g, p / 2], [0.0, (1 - p) * (1 - g), p / 2], [1 - p, 1 - p, p]]
    terms = {(s,): (steps[0][s], steps[1][s]) for s in range(3) if steps[0][s] or steps[1][s]}
    for _ in range(n - 1):
        terms = {
            (s, *key): (a * w[0], a * w[1])
            for key, w in terms.items() for s, a in enumerate(steps[key[0]]) if a
        }
    return terms


def _pair_trace(key: tuple, f: np.ndarray, g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr_2[T_key(F (x) G) (I (x) rho)] for F, G and rho on the key's
    columns, each kept or swapped; ``_phase`` has reduced away the traced ones.

    Swapping every column exchanges the registers, T_S(F (x) G) =
    T_K(G (x) F) for S the swapped columns and K the kept ones, so with
    more columns swapped than kept F and G trade places, and so do the
    swapped and kept columns. With no column swapped this is F Tr(G rho);
    otherwise two tensordots over the ``[2] * 2n`` tensors (axis i a row,
    n + i a column): G against rho over the kept columns, then F against
    that over the swapped ones.
    """
    moved = _SWAPPED
    if key.count(_SWAPPED) > key.count(_KEPT):
        f, g, moved = g, f, _KEPT
    if moved not in key:
        return f * np.einsum("ij,ji->", g, rho)
    n = len(key)
    swapped = [i for i, state in enumerate(key) if state == moved]
    kept = [i for i in range(n) if i not in swapped]
    shape = (2,) * (2 * n)
    # G's kept rows meet rho's kept columns, its kept columns rho's kept
    # rows; h keeps G's swapped rows and columns, then rho's
    h = np.tensordot(
        g.reshape(shape), rho.reshape(shape),
        (kept + [n + i for i in kept], [n + i for i in kept] + kept),
    )
    s = len(swapped)
    # F's swapped rows meet rho's swapped columns, its swapped columns rho's
    # swapped rows
    out = np.tensordot(
        f.reshape(shape), h,
        (swapped + [n + i for i in swapped], [*range(3 * s, 4 * s), *range(2 * s, 3 * s)]),
    )
    order = kept + [n + i for i in kept] + swapped + [n + i for i in swapped]
    # the inverse permutation, in Python: np.argsort would first convert the list
    back = sorted(range(len(order)), key=order.__getitem__)
    return out.transpose(back).reshape(f.shape)


def _phase(groups: dict, pair) -> np.ndarray:
    """The even pair [Y_0, Y_1] after one phase, register r + 1 traced
    against rho, from the noised pair [N(Y_0), N(Y_1)].

    A term that traces the columns T is I_T (x) the same term, on the
    kept columns, of Tr_T F, Tr_T G and Tr_T rho, over 4^|T|: a traced
    column is I/2 on both registers, that of register r + 1 traced
    against rho and that of register r left in place. ``groups`` holds
    the terms by the columns they keep (``_groups``). Tracing is linear,
    so each set reduces Y_0 and Y_1 in one partial trace of the pair,
    stacked once when some set traces a column, and a term's G is
    w_0 Y_0 + w_1 Y_1 of the reduced pair. ``_pair_trace`` reduces each
    term once, and the result is added into each of its blocks; the
    set's blocks are summed on the kept columns and embedded once
    (``linalg._add_embedded``), except that the set that traces nothing
    sums straight into the full registers.
    """
    d = pair[0].shape[0]
    dims = [2] * (d.bit_length() - 1)
    out = np.zeros((2, d, d), dtype=complex)
    stack = np.array(pair) if any(len(kept) < len(dims) for kept in groups) else None
    for kept, (f, rho, terms) in groups.items():
        whole = len(kept) == len(dims)
        y = pair if whole else partial_trace(stack, dims, kept)
        blocks = out if whole else np.zeros(y.shape, dtype=complex)
        for into, key, w in terms:
            term = _pair_trace(key, f, w[0] * y[0] + w[1] * y[1], rho)
            for j in into:
                blocks[j] += term
        if not whole:
            _add_embedded(out, blocks / 4 ** (len(dims) - len(kept)), dims, kept)
    return out


def _groups(noise: NoiseModel, f: np.ndarray, rho: np.ndarray, n: int) -> dict:
    """The terms of ``_phase_terms`` by the columns they keep, as {kept:
    (Tr_T F, Tr_T rho, [(blocks, key, w)])} with each key cut to the kept
    columns and its blocks read off its column 0 (``_BLOCKS``), T the
    rest; the set that traces nothing holds F and rho themselves.

    F and rho are stacked once when some set traces a column, so each
    such set reduces both in one partial trace; the stack is dropped on
    return, and the reduced copies take 2 * 5^n entries over all 2^n sets.
    """
    terms = _phase_terms(noise, n)
    both = np.array([f, rho]) if any(_TRACED in key for key in terms) else None
    groups = {}
    for key, w in terms.items():
        kept = tuple(i for i, state in enumerate(key) if state != _TRACED)
        if kept not in groups:
            reduced = (f, rho) if len(kept) == n else partial_trace(both, [2] * n, kept)
            groups[kept] = (*reduced, [])
        groups[kept][2].append((_BLOCKS[key[0]], tuple(key[i] for i in kept), w))
    return groups


def _sweep(noise: NoiseModel, rho: np.ndarray, rbar: np.ndarray, m: int, verify: bool):
    """(V_01, [V_00, V_11]): the readout blocks after the backward Fredkins
    of M = ``m`` registers, reduced against rho on registers 2..M by one
    backward sweep over register pairs, the ancilla's scalar on V_01
    aside. V_01 is None when N, the per-qubit adjoint machinery noise, is
    the identity or M = 1, since it is then the chain after its first
    rho, rbar (rho rbar)^(M-1) or rho^(M-1); the even
    pair is [rbar, rbar] unless ``verify`` and M > 1, and then one
    (2, d, d) array.

    The Fredkins of pair (r, r + 1) run together, r = M-2 first, and no
    later one touches register r + 1, so each phase traces it against rho
    and leaves d x d blocks on register r. The odd block's phase is
    y = N(rbar) rho N(y), the even pair's ``_phase``, whose terms, one per
    key of the column chain (``_phase_terms``), ``_groups`` sorts by the
    columns they keep, with F = N(rbar) and rho reduced on each set once
    for every phase. F, rho and the pair are stacked only when some term
    traces a column, as under local depolarizing; otherwise the noised
    pair is read as it is.
    """
    n = rho.shape[0].bit_length() - 1
    # the noise acts on the Fredkins, and one register has none
    per_qubit = m > 1 and not noise.is_trivial and noise.kind in PER_QUBIT_KINDS

    def noisy(x):
        return apply_noise(x, noise, range(n), n, adjoint=True) if per_qubit else x

    f = noisy(rbar)
    groups = _groups(noise, f, rho, n) if verify and m > 1 else {}
    y, pair = rbar, [rbar, rbar]
    for _ in range(m - 1):
        if per_qubit:
            y = f @ (rho @ noisy(y))
        if verify:
            pair = _phase(groups, [noisy(x) for x in pair])
    return (y if per_qubit else None), pair


def build_pipeline(
    kind: str,
    circuit: GateCircuit,
    noise: NoiseModel,
    observable: PauliObservable,
    n_copies: int = 2,
    machinery_noise: NoiseModel | None = None,
    dual_noise: NoiseModel | None = None,
) -> SchemePipeline:
    """Construct the full scheme circuit and read out its outcome probabilities.

    An ancilla-scheme circuit is a shared prefix (ancilla Hadamard on
    |0><0| (x) rho^(x)M), one controlled Pauli string per observable term
    (none for the denominator), and a shared suffix (controlled register
    swaps, inverse circuits, ancilla Hadamard). Every ancilla kind is read
    through one path: multi-copy is the verified readout with rbar = I and
    Pi = I. The readout is read in the Heisenberg picture: the effects
    W_Z = Z_anc (x) Pi and, for the verified schemes, W_P = I_anc (x) Pi
    (Pi projects every register to |0...0>) are propagated backwards
    through the suffix. The final Hadamard and its noise act on the
    ancilla factor, and the inverse circuits map Pi to R = rbar^(x)M, so
    before the Fredkins each effect is

        W = c I + alpha I_anc (x) R + beta X_anc (x) R.

    Backwards, a Fredkin is its adjoint machinery noise on (ancilla, a, b),
    then the Fredkin, which maps W_xy to S^x W_xy S^y over the ancilla,
    S the swap of qubits a and b. Every noise kind keeps the ancilla
    parity, so the Fredkins and their noise act only on the odd block
    O = W_01 of X_anc (x) R (W_10 = O^dag) and, when verifying, on the
    even pair (W_00, W_11) of I_anc (x) R, which serves W_P and, times
    alpha, the even part of W_Z. For multi-copy R = I, which every adjoint
    fixes, so the even part stays alpha I. Both are reduced by one
    backward sweep over register pairs (``_sweep``), which holds register
    matrices only, whatever the machinery kind.

    Global machinery depolarizing of strength p fixes I and commutes with
    every unitary, so it is split off once: the steps see no local noise,
    and the layers of the prefix Hadamard and of the F Fredkins, all
    before the inverse circuits, are one layer of strength
    q = 1 - (1-p)^(F+1) (``channels._global_layer``), which maps W to
    (1-q) W + q Tr(W) I/2^nq. The final Hadamard's layer, of strength
    1 - (1-p), acts before the inverse circuits' adjoint, which is not
    unital under amplitude damping, so it stays in c. The scalar s each
    Fredkin's local noise leaves on O folds in the same way.

    No prefix state is built either. The prefix is A (x) rho^(x)M, with A
    the ancilla after its Hadamard and its machinery noise, global noise
    excepted. A term's controlled Pauli string P touches register 1 only,
    so each block W_ba reduces to the d x d block
    V_ba = Tr_{2..M}[W_ba (I (x) rho^(x)(M-1))]. With no per-qubit noise,
    O = R C_M reduces to the operator chain (``_chain``) after its first
    rho, rbar (rho rbar)^(M-1) or rho^(M-1), and without machinery noise
    W_00 = W_11 = R reduce to
    Tr(rbar rho)^(M-1) rbar. A unit X is scored at O(d^2) per term as

        Tr(W X) = c Tr X + alpha ((1-q) E + q 2 Tr(R) Tr X / 2^nq)
                  + beta (1-q) s^F D,

    with E = sum_a A_aa Tr(V_aa P^a rho P^a^dag) (Tr X for multi-copy) and
    D the same sum over a != b: the even blocks against rho and
    P rho P^dag, the odd ones against rho P^dag and P rho. Tr X =
    Tr(A) Tr(rho)^M is taken from the same factors. Since P and rho are
    Hermitian, Tr(V_10 rho P) = conj Tr(V_01 P rho), so the odd traces are
    read once. Each string, the all-I string of the denominator included,
    becomes a signed permutation once per build, read by
    ``observables.pauli_traces`` and ``pauli_sandwiches``; Tr(V_00 rho) is
    read once. A build holds register-size matrices only. See
    ``MeasurableTerm`` for the outcomes.

    ``ideal_value`` is Tr(O |psi><psi|) for the circuit's output state
    vector psi (``circuits.circuit_state``), read against psi as a column
    and a row; ``raw_value`` is Tr(O rho). ``operator_ratio`` is the
    operator-level estimate: the ratio of the chain traces Tr(P a b)
    over the chain's halves, as the estimators read them, which with no
    per-qubit noise are also the odd traces Tr(V_01 P rho).

    ``noise`` afflicts the state-preparation circuits (and, unless
    ``dual_noise`` overrides it, the inverse circuits of the verification
    schemes); ``machinery_noise`` afflicts the ancilla Hadamards and
    every Fredkin of the controlled register swaps. Controlled-Pauli
    insertions are treated as ideal.
    """
    check_scheme_kind(kind)
    machinery = NO_NOISE if machinery_noise is None else machinery_noise
    n = circuit.n_qubits
    if observable.n_qubits != n:
        raise ValueError(
            f"observable width {observable.n_qubits} does not match circuit width {n}"
        )
    verify = kind in ("state-verification", "combined")
    copies = 1 if kind in ("raw", "state-verification") else n_copies
    if kind == "combined" and copies < 1:
        raise ValueError(f"need n_copies >= 1, got {n_copies}")
    if kind in _MULTICOPY_KINDS and copies < 2:
        raise ValueError(f"{kind} needs n_copies >= 2, got {n_copies}")
    degree = 2 * copies if verify else copies
    nq = 1 + copies * n
    if kind != "raw":
        check_dimension(2**nq)
    resources = resource_profile(kind, degree, n)

    perms = observable.permutations()
    psi = circuit_state(circuit)
    ideal_value = _term_sum(observable, pauli_traces(perms, psi[:, None], psi.conj()[None]))[0]
    rho = prepare_noisy_state(circuit, noise)
    rho_mat = rho.matrix
    raw = pauli_traces(perms, rho_mat)
    raw_value, rho_trace = (x.real for x in _term_sum(observable, raw))

    if kind == "raw":
        # each string read as a sign: +1 with probability (Tr rho + Tr(P rho))/2
        z, kept, rest, operator_ratio = raw, rho_trace, None, raw_value
    else:
        # global machinery is the folded layers alone, any other kind local
        local_noise = NO_NOISE if machinery.kind == "depolarizing-global" else machinery
        final = _global_layer(machinery, 1)
        # the ancilla's local machinery noise, each way, as 4 x 4
        # superoperators; entry [(x, y), (u, v)] is |x><y| out of |u><v|
        sup, sup_adj = (noise_superoperator(local_noise, 1, adjoint=a) for a in (False, True))
        # the prefix A (x) rho^(x)M, kept as its factors
        ancilla = gate_matrix("H") @ zero_projector(2) @ gate_matrix("H")
        ancilla = (sup @ ancilla.reshape(4)).reshape(2, 2)
        # Tr(A (x) rho^(x)M), which the identity reads off every unit
        unit_trace = float(np.trace(ancilla).real) * rho_trace**copies
        # multi-copy is the verified readout with rbar = I and Pi = I
        rbar = (
            dual_state(circuit, noise, dual_noise).matrix if verify
            else np.eye(2**n, dtype=complex)
        )
        # the operator chain Tr(P a b) over its halves: rho^M, or (rho rbar)^M
        # when verifying
        chain = pauli_traces(perms, *_chain(rho_mat, rbar, copies, copies if verify else 0))
        num, den = _term_sum(observable, chain)
        operator_ratio = checked_ratio(num.real, den.real, _denominator_name(kind, copies))
        # the adjoint of the inverse circuits maps Pi to R = rbar^(x)M
        r_trace = float(np.trace(rbar).real) ** copies

        def head(diag: np.ndarray):
            """(c, alpha, beta) with the readout effect diag (x) Pi equal to
            c I + alpha I_anc (x) R + beta X_anc (x) R before the Fredkins."""
            # the final layer: (1-q) W + q Tr(W)/2^nq I on the composite; Tr Pi
            # = 1 when verifying, and multi-copy reads only Z, of trace 0
            c = final * diag.sum() / 2**nq
            effect = np.diag((1.0 - final) * diag)
            diag = (sup_adj @ effect.reshape(4))[[0, 3]].real
            # H diag(z0, z1) H = (z0 + z1)/2 I + (z0 - z1)/2 X; the suffix is
            # trace-preserving, so every adjoint leaves c I alone
            return c, (diag[0] + diag[1]) / 2, (diag[0] - diag[1]) / 2

        # the global machinery layers of the prefix Hadamard and the F
        # Fredkins fold into one, the scale
        fredkins = (copies - 1) * n
        scale = 1.0 - _global_layer(machinery, fredkins + 1)
        # the scalar each Fredkin's noise leaves on O: the ancilla's |0><1|
        # entry under it
        odd_factor = sup_adj[1, 1].real
        v_01, (v_00, v_11) = _sweep(local_noise, rho_mat, rbar, copies, verify)
        # Tr(V_01 P rho) per string; with N the identity V_01 is the chain
        # after its first rho, so these are the chain traces
        forward = chain if v_01 is None else pauli_traces(perms, rho_mat, v_01)
        # Tr(V_10 rho P) = conj Tr(V_01 P rho), since P and rho are Hermitian
        odd = ancilla[1, 0] * forward + ancilla[0, 1] * forward.conj()
        if not verify:
            # R = I, and every adjoint of the suffix keeps I_anc (x) I
            even = unit_trace
        else:
            # rho^T copied row-major once, read as rho_t.T without a copy:
            # Tr(V_00 rho), the same for every string, and
            # Tr(V_11 P rho P^dag) = Tr(rho P V_11 P^dag)
            rho_t = rho_mat.T.copy()
            even = ancilla[0, 0] * pauli_traces(perms[-1:], v_00, rho_t.T)
            even = even + ancilla[1, 1] * pauli_sandwiches(perms, rho_t.T, v_11)
        # the folded global layer leaves (1 - scale) Tr(I_anc (x) R)/2^nq I of
        # the even part; the scalar each Fredkin's noise leaves on O folds in too
        even = scale * even + (1.0 - scale) * 2.0 * r_trace / 2**nq * unit_trace
        odd = scale * odd_factor**fredkins * odd
        # Tr(W X) = c Tr X + alpha Tr((I_anc (x) R) X) + beta Tr((X_anc (x) R) X)
        readout = (unit_trace, even, odd)
        z = sum(w * x for w, x in zip(head(_ANCILLA_VALUES), readout))
        if verify:
            kept = sum(w * x for w, x in zip(head(np.ones(2)), readout)).real
            rest = unit_trace - kept
        else:
            kept, rest = unit_trace, None

    *terms, denominator = _sign_units(observable, kept, z, rest)
    return SchemePipeline(
        kind=kind,
        degree=degree,
        n_copies=copies,
        n_qubits=n,
        numerator_terms=tuple(terms),
        denominator=denominator,
        resources=resources,
        ideal_value=float(ideal_value.real),
        raw_value=float(raw_value),
        operator_ratio=operator_ratio,
    )
