"""Mitigation schemes, from operator identities to circuit-level pipelines.

The estimators all measure a ratio. At operator level:

* multi-copy: Tr(O rho^M) / Tr(rho^M), realized on hardware as the
  cyclic-permutation contraction Tr(C_M O_1 rho^(x)M).
* state verification: Tr(rho_bar O rho) / Tr(rho_bar rho) with rho_bar
  the dual state of the inverse circuit.
* combined: Tr(O (rho rho_bar)^M) / Tr((rho rho_bar)^M), degree 2M from
  M registers.

Each is a register chain rho^(M-k) (rho rho_bar)^k (``_chain``), read as
Tr(P rho tail) so its last product is never formed: every Pauli string
of O, and the all-I string of the denominator, is read against the
chain by ``observables.pauli_traces``. The three estimators share one
register check (``_registers``) and one chain report (``_chain_report``).
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
shared suffix once, as quarter-size ancilla-parity blocks on which a
Fredkin is a qubit relabeling, then reduced against the product prefix
state and scored per term by the Pauli-string readers of ``observables``.
A block is built only where machinery noise couples two registers;
elsewhere it reduces to register products, and with no per-qubit noise
to the operator chain, which a build reads once for its readout and its
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
from functools import cache, reduce

import numpy as np

from .channels import (
    NO_NOISE,
    NoiseModel,
    _global_layer,
    apply_noise,
    dual_state,
    noise_superoperator,
    permuted_view,
    prepare_noisy_state,
)
from .circuits import GateCircuit, circuit_state, gate_matrix
from .linalg import as_matrix, check_dimension, kron_power, zero_projector
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
    checked before any product to be finite 2^n x 2^n registers of the
    observable's width; a non-finite entry fails the ``kind`` ratio's guard."""
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
    if not all(np.isfinite(x).all() for x in (rho, rbar) if x is not None):
        checked_ratio(math.nan, math.nan, _denominator_name(kind, m))
    return rho, rbar, n


def _term_sum(observable: PauliObservable, traces: np.ndarray):
    """(Tr(O X), Tr X) from the traces against X of
    ``observable.permutations()``, the all-I string last."""
    return complex(observable.coefficients @ traces[:-1]), complex(traces[-1])


def _chain(rho: np.ndarray, rbar, m: int, k: int):
    """The chain rho^(m-k) (rho rbar)^k, 0 <= k <= m, as its tail: the
    product after the first rho, or None when rho is the whole chain.
    ``pauli_traces(perms, rho, tail)`` reads Tr(P chain) = Tr(P rho tail)
    at O(d^2) per string. ``rbar`` is read only when k >= 1."""
    factors = ([rho] * (m - k) + [rho, rbar] * k)[1:]
    return reduce(np.matmul, factors) if factors else None


def _chain_report(
    kind: str, observable: PauliObservable, rho, rbar, m: int, k: int, resources, **extra
) -> EstimateReport:
    """The estimate Re Tr(O X) / Re Tr X for the chain X = rho^(m-k)
    (rho rbar)^k, every string of O and the all-I string read once."""
    traces = pauli_traces(observable.permutations(), rho, _chain(rho, rbar, m, k))
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

    Read as Tr(O rho rho^(M-1)), so rho^M is never formed; this equals the
    cyclic permutation contraction on the M-copy composite
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


def _parity_steps(machinery: NoiseModel, nq: int):
    """One backward Fredkin step on the even pair of an nq-qubit effect.

    Backwards, a Fredkin is its adjoint machinery noise on (ancilla, a, b),
    then the Fredkin. Over the ancilla (qubit 0) it maps W_xy to
    S^x W_xy S^y, S the swap of qubits a and b, and every noise kind keeps
    the ancilla parity. S moves no data: it swaps two entries of W_11's
    two-sided map; W_00 is never mapped.

    Returns (even, odd_factor): ``even(pair, axes, a, b)`` updates the
    blocks (W_00, W_11) and W_11's map in place, a and b composite
    targets, by one ``apply_noise`` on the pair; a build calls it only
    under local depolarizing. ``odd_factor`` is the scalar each step
    leaves on the odd block, the ancilla's |0><1| entry under the noise
    (``noise_superoperator``): 1 - p under both depolarizing kinds,
    1 - 2p under dephasing and sqrt(1 - p) under amplitude damping.
    """
    k = nq - 1
    # entry [(x, y), (u, v)]: |x><y| in the output from |u><v|
    odd_factor = noise_superoperator(machinery, 1, adjoint=True)[1, 1].real

    def even(pair, axes, a, b):
        a, b = a - 1, b - 1
        logical = [pair[0], permuted_view(pair[1], k, axes)]
        apply_noise(logical, machinery, (a, b), k, adjoint=True)
        axes[a], axes[b] = axes[b], axes[a]

    return even, odd_factor


def _odd_reduction(rho: np.ndarray, rbar: np.ndarray, m: int, noisy) -> np.ndarray:
    """V_01 of O = W_01 after the backward Fredkins of M = ``m`` registers,
    odd_factor^F aside, with N = ``noisy`` the per-qubit machinery noise
    on one register: y = rbar, then M - 1 times y = N(rbar) rho N(y). With
    N the identity this is the chain's tail rbar (rho rbar)^(M-1)."""
    y, first = rbar, noisy(rbar)
    for _ in range(m - 1):
        y = first @ (rho @ noisy(y))
    return y


def _even_terms(fredkins, gamma: float, k: int) -> list:
    """The even pair after the backward Fredkins, as terms [weight, axes,
    counts]: W_00, then those that sum to W_11. A term is R = rbar^(x)M,
    N applied counts[s] times to stored qubit s, under the two-sided map
    ``axes``. Step (a, b) applies N to qubits a and b of both blocks and
    swaps them in W_11's map; amplitude damping's ancilla mix adds
    gamma W_00 into (1 - gamma) W_11, a term per step (none at gamma = 0)."""
    terms = [[1.0, list(range(k)), [0] * k] for _ in range(2)]
    for a, b in fredkins:
        a, b = a - 1, b - 1
        for term in terms[1:]:
            term[0] *= 1.0 - gamma
        if gamma:
            terms.append([gamma, list(range(k)), list(terms[0][2])])
        for i, (_, axes, counts) in enumerate(terms):
            counts[axes[a]] += 1
            counts[axes[b]] += 1
            if i:
                axes[a], axes[b] = axes[b], axes[a]
    return terms


def _reduced_product(factor, counts, rho: np.ndarray, axes, n: int) -> np.ndarray:
    """Tr_{2..M}[W (I (x) rho^(x)(M-1))], 2^n x 2^n, for the register
    product W under the two-sided map ``axes``, stored register r being
    ``factor`` of its qubits' ``counts``: one einsum, stored qubit s
    labelled s on the rows and k + s on the columns (at most 24 labels)."""
    k = len(axes)
    shape = (2,) * (2 * n)
    operands = []
    for r in range(k // n):
        stored = range(r * n, (r + 1) * n)
        x = factor(tuple(counts[r * n : (r + 1) * n]))
        operands += [x.reshape(shape), [*stored, *(k + s for s in stored)]]
    for r in range(1, k // n):
        held = axes[r * n : (r + 1) * n]
        operands += [rho.reshape(shape), [*(k + s for s in held), *held]]
    out = [*axes[:n], *(k + s for s in axes[:n])]
    return np.einsum(*operands, out, optimize=True).reshape(2**n, 2**n)


def _reduced(block: np.ndarray, axes, weights, n: int) -> np.ndarray:
    """Tr_{2..M}[W (I (x) rho^(x)(M-1))], 2^n x 2^n, for the block W of M
    n-qubit registers stored under the two-sided map ``axes``.

    ``weights`` is (rho^T)^(x)(M-1), C-contiguous; a block exists only
    when the build has Fredkins, so M >= 2. The map is the identity or
    C_M, which stores register 1 last and the rest in order, so the trace
    is one batched matrix product over the stored registers: no
    transposed copy.
    """
    d, e = 2**n, weights.shape[0]
    if axes[0] == 0:
        return (block.reshape(d, e, d, e) @ weights[..., None]).sum(axis=1).reshape(d, d)
    # batched over the row registers, aligned with registers 2..M
    return (weights[:, None, None] @ block.reshape(e, d, e, d)).sum(axis=0).reshape(d, d)


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

    Every Fredkin step keeps an effect's ancilla parity
    (``_parity_steps``), so the Fredkins and their noise act only on the
    odd block O = W_01 of X_anc (x) R (W_10 = O^dag) and, when verifying,
    on the even pair (W_00, W_11) of I_anc (x) R, which serves W_P and,
    times alpha, the even part of W_Z. For multi-copy R = I, which every
    adjoint fixes, so the even part stays alpha I. A Fredkin only relabels
    qubits, and per-qubit machinery noise reaches one register at a time,
    so O and the even pair reduce to register products (``_odd_reduction``,
    ``_even_terms``). Only local depolarizing couples two registers, so
    only under it is the combined even pair built as blocks, W_11 stored
    under a qubit map that ends as C_M, each step one ``apply_noise``.

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
    O = R C_M reduces to the operator chain's tail (``_chain``),
    rbar (rho rbar)^(M-1) or rho^(M-1), and W_00 = W_11 = R to
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
    read once. A build that steps a block peaks at R and one copy of it,
    half a composite, plus the steps' transients of at most a quarter
    block; any other build holds register-size matrices only. See
    ``MeasurableTerm`` for the outcomes.

    ``ideal_value`` is Tr(O |psi><psi|) for the circuit's output state
    vector psi (``circuits.circuit_state``), read against psi as a column
    and a row; ``raw_value`` is Tr(O rho). ``operator_ratio`` is the
    operator-level estimate: the ratio of the chain traces Tr(P rho tail)
    the estimators read, which with no per-qubit noise are also the odd
    traces Tr(V_01 P rho).

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
        # the prefix A (x) rho^(x)M, kept as its factors
        ancilla = gate_matrix("H") @ zero_projector(2) @ gate_matrix("H")
        ancilla = apply_noise(ancilla, local_noise, [0], 1)
        # Tr(A (x) rho^(x)M), which the identity reads off every unit
        unit_trace = float(np.trace(ancilla).real) * rho_trace**copies
        # multi-copy is the verified readout with rbar = I and Pi = I
        rbar = (
            dual_state(circuit, noise, dual_noise).matrix if verify
            else np.eye(2**n, dtype=complex)
        )
        # the operator chain Tr(P rho tail): rho^M, or (rho rbar)^M when verifying
        tail = _chain(rho_mat, rbar, copies, copies if verify else 0)
        chain = pauli_traces(perms, rho_mat, tail)
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
            effect = np.diag((1.0 - final) * diag).astype(complex)
            diag = np.diagonal(apply_noise(effect, local_noise, [0], 1, adjoint=True)).real
            # H diag(z0, z1) H = (z0 + z1)/2 I + (z0 - z1)/2 X; the suffix is
            # trace-preserving, so every adjoint leaves c I alone
            return c, (diag[0] + diag[1]) / 2, (diag[0] - diag[1]) / 2

        # the Fredkins, last first; the global machinery layers of the prefix
        # Hadamard and the Fredkins fold into one, the scale
        fredkins = [
            (1 + r * n + i, 1 + (r + 1) * n + i)
            for r in reversed(range(copies - 1))
            for i in reversed(range(n))
        ]
        scale = 1.0 - _global_layer(machinery, len(fredkins) + 1)
        even_step, odd_factor = _parity_steps(local_noise, nq)
        local = bool(fredkins) and not local_noise.is_trivial
        per_qubit = local and local_noise.kind in ("dephasing", "amplitude-damping")

        def noisy(x, counts=(1,) * n):
            """x after N, the Fredkins' per-qubit noise, counts[q] times on qubit q."""
            for level in range(max(counts)):
                hit = [q for q, c in enumerate(counts) if c > level]
                x = apply_noise(x.copy(), local_noise, hit, n, adjoint=True)
            return x

        factor = cache(lambda counts: noisy(rbar, counts))

        # Tr(V_01 P rho) per string; with N the identity V_01 is the chain's tail
        forward = chain
        if per_qubit:
            forward = pauli_traces(perms, rho_mat, _odd_reduction(rho_mat, rbar, copies, noisy))
        # Tr(V_10 rho P) = conj Tr(V_01 P rho), since P and rho are Hermitian
        odd = ancilla[1, 0] * forward + ancilla[0, 1] * forward.conj()
        if not verify:
            # R = I, and every adjoint of the suffix keeps I_anc (x) I
            even = unit_trace
        else:
            t = 1.0
            if local and local_noise.kind == "depolarizing-local":
                # the noise couples two registers: W_00 takes over R, W_11 a
                # copy of it, and registers 2..M of the prefix are traced
                # against each block, transposed
                pair = [kron_power(rbar, copies)]
                pair.append(pair[0].copy())
                unmapped = list(range(nq - 1))
                axes = list(unmapped)
                for a, b in fredkins:
                    even_step(pair, axes, a, b)
                weights = np.ascontiguousarray(kron_power(rho_mat.T, copies - 1))
                v_00 = _reduced(pair[0], unmapped, weights, n)
                v_11 = _reduced(pair[1], axes, weights, n)
                del pair
            elif per_qubit:
                # register products, reduced one by one; dephasing is gamma = 0
                gamma = local_noise.strength if local_noise.kind == "amplitude-damping" else 0.0
                v_00, *jumps = (
                    weight * _reduced_product(factor, counts, rho_mat, axes, n)
                    for weight, axes, counts in _even_terms(fredkins, gamma, nq - 1)
                )
                v_11 = sum(jumps)
            else:
                # R itself: Tr(rbar rho)^(M-1) rbar, with no scaled copy
                v_00 = v_11 = rbar
                t = np.vdot(rbar, rho_mat) ** (copies - 1)
            # rho^T copied row-major once, read as rho_t.T without a copy:
            # Tr(V_00 rho), the same for every string, and
            # Tr(V_11 P rho P^dag) = Tr(rho P V_11 P^dag)
            rho_t = rho_mat.T.copy()
            even = ancilla[0, 0] * t * pauli_traces(perms[-1:], v_00, rho_t.T)
            even = even + ancilla[1, 1] * t * pauli_sandwiches(perms, rho_t.T, v_11)
        # the folded global layer leaves (1 - scale) Tr(I_anc (x) R)/2^nq I of
        # the even part; the scalar each Fredkin's noise leaves on O folds in too
        even = scale * even + (1.0 - scale) * 2.0 * r_trace / 2**nq * unit_trace
        odd = scale * odd_factor ** len(fredkins) * odd
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
