import ast
import inspect
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial, reduce
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

from puremit import channels, circuits, linalg, observables, reference, sampling, schemes
from puremit.channels import (
    NO_NOISE,
    NOISE_KINDS,
    PER_QUBIT_KINDS,
    NoiseModel,
    apply_noise,
    dual_state,
    noise_superoperator,
    prepare_noisy_state,
)
from puremit.circuits import (
    SWAP_GATE,
    Gate,
    GateCircuit,
    embed_operator,
    gate_matrix,
    inverse_circuit,
    random_circuit,
)
from puremit.linalg import (
    DensityOperator,
    kron_all,
    kron_power,
    random_density,
    random_hermitian,
)
from puremit.observables import PauliObservable, parse_observable, pauli_string_matrix
from puremit.purification import purified_expectation
from puremit.reference import (
    apply_local,
    controlled_register_swap,
    cyclic_permutation,
    depolarizing_channel,
    forward_outcomes,
    fredkin_matrix,
    permutation_contraction,
    register_swap,
    verified_composite_contraction,
)
from puremit.resources import SCHEME_KINDS, ResourceProfile, resource_profile
from puremit.sampling import ShotConfig, scheme_shot_experiment
from puremit.schemes import (
    SchemePipeline,
    VanishingDenominatorError,
    build_pipeline,
    combined_estimate,
    multicopy_estimate,
    state_verification_estimate,
)


def _cyclic_by_digits(m, d):
    """Independent construction: map digit tuples (k1..kM) -> (k2..kM k1)."""
    total = d**m
    c = np.zeros((total, total))
    for digits in iproduct(range(d), repeat=m):
        col = sum(k * d ** (m - 1 - j) for j, k in enumerate(digits))
        rot = digits[1:] + digits[:1]
        row = sum(k * d ** (m - 1 - j) for j, k in enumerate(rot))
        c[row, col] = 1.0
    return c


def test_cyclic_permutation_m2_is_swap():
    assert np.array_equal(cyclic_permutation(2, 2).real, SWAP_GATE.real)


def test_cyclic_permutation_matches_digit_map():
    for m, d in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        got = cyclic_permutation(m, d)
        assert np.array_equal(got.real, _cyclic_by_digits(m, d))


def test_cyclic_permutation_unitary_and_order():
    for m, d in ((2, 2), (3, 2), (3, 3)):
        c = cyclic_permutation(m, d)
        assert np.max(np.abs(c.conj().T @ c - np.eye(d**m))) <= 1e-12
        # M applications give the identity
        acc = np.eye(d**m)
        for _ in range(m):
            acc = c @ acc
        assert np.array_equal(acc.real, np.eye(d**m))


def test_cyclic_permutation_factors_into_adjacent_swaps():
    for m, d in ((2, 2), (3, 2), (4, 2), (3, 3)):
        prod = np.eye(d**m)
        for r in range(m - 1):
            # S_{0,1} applied first, so it sits rightmost in the product
            prod = register_swap(m, d, r) @ prod
        assert np.array_equal(prod.real, cyclic_permutation(m, d).real)


def test_cyclic_contraction_chains_factors():
    rng = np.random.default_rng(0)
    for m, d in ((2, 2), (3, 2), (3, 3)):
        mats = [
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(m)
        ]
        want = np.trace(np.linalg.multi_dot(mats)) if m > 1 else np.trace(mats[0])
        got = np.trace(cyclic_permutation(m, d) @ kron_all(mats))
        assert abs(got - want) < 1e-10


def test_register_swap_on_two_qubit_registers():
    s = register_swap(2, 4, 0)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert np.max(np.abs(s @ np.kron(a, b) @ s - np.kron(b, a))) < 1e-12
    with pytest.raises(ValueError):
        register_swap(2, 4, 1)


def test_fredkin_matrix_basis_action():
    f = fredkin_matrix()
    want = np.eye(8)
    # control = 1 block swaps the two target bits: 101 <-> 110
    want[[5, 6], [5, 6]] = 0
    want[5, 6] = want[6, 5] = 1
    assert np.array_equal(f.real, want)


def test_controlled_register_swap_factorization():
    for n in (1, 2):
        mat, triples = controlled_register_swap(n)
        assert len(triples) == n
        nq = 1 + 2 * n
        prod = np.eye(2**nq, dtype=complex)
        for trip in triples:
            prod = embed_operator(fredkin_matrix(), trip, nq) @ prod
        assert np.max(np.abs(mat - prod)) < 1e-12
        # control |0> leaves registers alone
        dim = 2 ** (2 * n)
        assert np.max(np.abs(mat[:dim, :dim] - np.eye(dim))) < 1e-12


def test_permutation_contraction_matches_explicit_matrices():
    rng = np.random.default_rng(2)
    for m, d in ((2, 2), (3, 2), (2, 4)):
        rho = random_density(rng, d).matrix
        obs = random_hermitian(rng, d)
        o1 = np.kron(obs, np.eye(d ** (m - 1), dtype=complex))
        want = np.trace(
            cyclic_permutation(m, d) @ o1 @ kron_all([rho] * m)
        )
        got = permutation_contraction(obs, [rho] * m)
        assert abs(got - want) < 1e-10


def test_multicopy_estimate_example():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = 0.8 * plus + 0.2 * np.eye(2) / 2
    obs = PauliObservable.single("X")
    rep = multicopy_estimate(rho, obs, 2)
    assert rep.ratio == pytest.approx(0.975609756097561, abs=1e-12)
    assert rep.numerator == pytest.approx(0.80, abs=1e-12)
    assert rep.denominator == pytest.approx(0.82, abs=1e-12)
    # the reduced chain equals the composite permutation contraction
    om = obs.matrix()
    assert abs(permutation_contraction(om, [rho] * 2) - rep.numerator) < 1e-12
    assert abs(permutation_contraction(np.eye(2), [rho] * 2) - rep.denominator) < 1e-12
    assert rep.resources.kind == "multi-copy" and rep.resources.degree == 2


def test_multicopy_estimate_matches_purified_expectation():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        rho = random_density(rng, 4).matrix
        obs = PauliObservable(((0.7, "ZI"), (-0.4, "XY")))
        rep = multicopy_estimate(rho, obs, m)
        want = purified_expectation(rho, obs.matrix(), m)
        assert rep.ratio == pytest.approx(want, abs=1e-10)


def test_multicopy_estimate_single_copy_is_raw():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2).matrix
    rep = multicopy_estimate(rho, PauliObservable.single("Z"), 1)
    assert rep.resources.kind == "raw"
    assert rep.ratio == pytest.approx(np.trace(np.diag([1, -1]) @ rho).real, abs=1e-12)


def test_multicopy_estimate_recycled_kind():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2).matrix
    obs = PauliObservable.single("Z")
    plain = multicopy_estimate(rho, obs, 3)
    rec = multicopy_estimate(rho, obs, 3, kind="multi-copy-recycled")
    assert rec.ratio == pytest.approx(plain.ratio, abs=1e-12)
    assert rec.resources.registers == 2 and plain.resources.registers == 3
    assert rec.resources.depth_factor == 2
    with pytest.raises(ValueError):
        multicopy_estimate(rho, obs, 2, kind="combined")


def test_multicopy_estimate_large_composite_reads_the_register_chain():
    # the 6-qubit M = 3 composite (2^18) is past the dense cap, but the
    # estimate reads only the register chain, Tr(P rho rho^2) on 64 x 64 matrices
    rng = np.random.default_rng(12)
    rho = random_density(rng, 64).matrix
    obs = PauliObservable(((0.6, "XZIYZI"), (-0.3, "ZZZIII")))
    rep = multicopy_estimate(rho, obs, 3)
    cube = np.linalg.matrix_power(rho, 3)
    want = np.trace(obs.matrix() @ cube).real / np.trace(cube).real
    assert rep.ratio == pytest.approx(want, abs=1e-12)


def test_multicopy_estimate_vanishing_denominator():
    tiny = 1e-8 * np.eye(2, dtype=complex) / 2
    with pytest.raises(VanishingDenominatorError):
        multicopy_estimate(tiny, PauliObservable.single("Z"), 2)


def test_state_verification_with_ideal_dual_is_degree_two():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 4).matrix
    obs = PauliObservable(((1.0, "ZZ"), (0.5, "XI")))
    rep = state_verification_estimate(rho, rho, obs)
    want = purified_expectation(rho, obs.matrix(), 2)
    assert rep.ratio == pytest.approx(want, abs=1e-10)
    assert rep.resources.kind == "state-verification"
    assert rep.resources.depth_factor == 2 and rep.resources.registers == 1


def test_state_verification_orthogonal_dual_raises():
    rho = np.diag([1.0, 0.0]).astype(complex)
    dual = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(VanishingDenominatorError):
        state_verification_estimate(rho, dual, PauliObservable.single("Z"))


_ESTIMATORS = {
    "multi-copy": lambda rho, rbar, obs: multicopy_estimate(rho, obs, 2),
    "state-verification": state_verification_estimate,
    "combined": lambda rho, rbar, obs: combined_estimate(rho, rbar, obs, 2),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "kind,operand",
    [("multi-copy", "state"), ("state-verification", "state"), ("state-verification", "dual"),
     ("combined", "state"), ("combined", "dual")],
)
def test_estimators_raise_on_a_non_finite_chain(kind, operand, bad):
    # one entry of a raw ndarray makes the chain trace NaN or infinite; a
    # guard written abs(den) < floor would let NaN through as the ratio
    rng = np.random.default_rng(4)
    rho, rbar = (random_density(rng, 4).matrix.copy() for _ in range(2))
    target = rho if operand == "state" else rbar
    target[1, 2] = bad
    # the registers are checked before any product, so an infinite entry
    # raises the package's error, not numpy's invalid-value warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VanishingDenominatorError, match="numerator .* is not finite"):
            _ESTIMATORS[kind](rho, rbar, PauliObservable(((0.5, "XZ"), (0.5, "ZZ"))))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_chain_halves_multiply_to_the_chain(m):
    # a b (or a alone when b is None) is rho^(m-k) (rho rbar)^k for every k
    rng = np.random.default_rng([31, m])
    rho, rbar = (random_density(rng, 8).matrix for _ in range(2))
    for k in range(m + 1):
        a, b = schemes._chain(rho, rbar, m, k)
        want = reduce(np.matmul, [rho] * (m - k) + [rho, rbar] * k)
        got = a if b is None else a @ b
        assert np.max(np.abs(got - want)) <= 1e-13, k


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("verified", [False, True], ids=["k=0", "k=m"])
def test_even_chain_halves_are_one_array(m, verified):
    # X^m for even m, X = rho or rho rbar, is X^(m/2) twice, formed once
    rng = np.random.default_rng([32, m])
    rho, rbar = (random_density(rng, 8).matrix for _ in range(2))
    a, b = schemes._chain(rho, rbar, m, m if verified else 0)
    assert a is b


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["state-verification", "combined"])
def test_a_raw_dual_beside_a_density_operator_is_scanned(kind, bad):
    # only a DensityOperator skips the scan for non-finite entries, so a
    # raw dual with one bad entry still fails the guard, before any
    # product, next to a checked state
    rng = np.random.default_rng(4)
    rho, rbar = random_density(rng, 4), random_density(rng, 4).matrix.copy()
    rbar[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VanishingDenominatorError, match="numerator .* is not finite"):
            _ESTIMATORS[kind](rho, rbar, PauliObservable(((0.5, "XZ"), (0.5, "ZZ"))))


def test_checked_ratio_is_the_one_denominator_guard():
    assert schemes.checked_ratio(0.25, 0.5, "x") == 0.5
    assert schemes.checked_ratio(-1e-3, -2e-12, "x") == -1e-3 / -2e-12
    # a finite denominator under the floor: the quantity and its value
    for den, text in [(0.0, "0.000e+00"), (-5e-13, "-5.000e-13")]:
        with pytest.raises(VanishingDenominatorError) as err:
            schemes.checked_ratio(1.0, den, "Tr(rho^2) =")
        assert str(err.value) == f"Tr(rho^2) = {text} is numerically zero"
    for num, den, text in [
        (1.0, np.nan, "nan or numerator 1.000e+00"), (np.nan, 1.0, "1.000e+00 or numerator nan"),
        (1.0, np.inf, "inf or numerator 1.000e+00"), (-np.inf, 1.0, "1.000e+00 or numerator -inf"),
    ]:
        with pytest.raises(VanishingDenominatorError) as err:
            schemes.checked_ratio(num, den, "overlap")
        assert str(err.value) == f"overlap {text} is not finite"


def test_combined_estimate_equals_high_degree_purification():
    # with an ideal dual equal to rho, M copies give degree 2M
    rng = np.random.default_rng(7)
    rho = random_density(rng, 4).matrix
    obs = PauliObservable.single("ZI")
    for m in (1, 2, 3):
        rep = combined_estimate(rho, rho, obs, m)
        want = purified_expectation(rho, obs.matrix(), 2 * m)
        assert rep.ratio == pytest.approx(want, abs=1e-10)
        assert rep.resources.degree == 2 * m
        assert rep.resources.registers == m


def test_combined_estimate_composite_cross_check():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 2).matrix
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rbar = z @ z.conj().T / 2.0  # PSD, not normalized
    obs = PauliObservable.single("Z")
    rep = combined_estimate(rho, rbar, obs, 2)
    rb_m = kron_power(rbar, 2)
    num = verified_composite_contraction(rb_m, obs.matrix(), rho, 2)
    den = verified_composite_contraction(rb_m, np.eye(2), rho, 2)
    # the chain of a non-normalized dual is complex; the report keeps the
    # real parts and the larger imaginary part
    assert abs(num.real - rep.numerator) < 1e-10
    assert abs(den.real - rep.denominator) < 1e-10
    assert abs(max(abs(num.imag), abs(den.imag)) - rep.imag_residual) < 1e-10


def test_combined_estimate_partial_verification():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2).matrix
    rbar = random_density(rng, 2).matrix
    obs = PauliObservable.single("X")
    om = obs.matrix()
    # k verified copies out of M: Tr(O rho^(M-k) (rho rbar)^k)
    for m, k in ((2, 1), (3, 2), (3, 0)):
        rep = combined_estimate(rho, rbar, obs, m, verified_copies=k)
        chain = np.linalg.matrix_power(rho, m - k) @ np.linalg.matrix_power(
            rho @ rbar, k
        )
        want = np.trace(om @ chain).real / np.trace(chain).real
        assert rep.ratio == pytest.approx(want, abs=1e-10)
        assert rep.resources.degree == m + k
        assert rep.details["verified_copies"] == k
    with pytest.raises(ValueError):
        combined_estimate(rho, rbar, obs, 2, verified_copies=3)


def test_resource_profile_table():
    assert resource_profile("raw", 1, 3) == ResourceProfile("raw", 1, 1, 0, 0, 1, 0)
    assert resource_profile("multi-copy", 4, 2) == ResourceProfile(
        "multi-copy", 4, 4, 3, 6, 1, 1
    )
    assert resource_profile("multi-copy-recycled", 4, 2) == ResourceProfile(
        "multi-copy-recycled", 4, 2, 3, 6, 3, 1
    )
    assert resource_profile("state-verification", 2, 2) == ResourceProfile(
        "state-verification", 2, 1, 0, 0, 2, 1
    )
    assert resource_profile("combined", 4, 2) == ResourceProfile(
        "combined", 4, 2, 1, 2, 2, 1
    )


def test_resource_profile_rejects_incompatible_degrees():
    with pytest.raises(ValueError):
        resource_profile("raw", 2, 1)
    with pytest.raises(ValueError):
        resource_profile("state-verification", 3, 1)
    with pytest.raises(ValueError):
        resource_profile("combined", 3, 1)
    with pytest.raises(ValueError):
        resource_profile("multi-copy", 1, 1)
    with pytest.raises(ValueError):
        resource_profile("distilled", 2, 1)


def test_resource_savings_at_matched_degree():
    # combined reaches degree 2M with half the registers and M-1 swaps
    for m in (1, 2, 3, 4):
        comb = resource_profile("combined", 2 * m, 2)
        multi = resource_profile("multi-copy", 2 * m, 2)
        assert comb.registers == multi.registers // 2
        assert comb.control_register_swaps == m - 1
        assert multi.control_register_swaps == 2 * m - 1
        assert comb.control_register_swaps < multi.control_register_swaps


_GENERIC_ANGLES = (0.9, -1.7, 2.1, 0.6, -0.8)


def _generic_circuit():
    return GateCircuit(
        2,
        (
            Gate("RY", (0,), _GENERIC_ANGLES[0]),
            Gate("RZ", (0,), _GENERIC_ANGLES[1]),
            Gate("RY", (1,), _GENERIC_ANGLES[2]),
            Gate("CNOT", (0, 1)),
            Gate("RY", (0,), _GENERIC_ANGLES[3]),
            Gate("RZ", (1,), _GENERIC_ANGLES[4]),
        ),
    )


@pytest.mark.parametrize(
    "kind,copies",
    [
        ("raw", 1),
        ("multi-copy", 2),
        ("multi-copy", 3),
        ("multi-copy-recycled", 2),
        ("state-verification", 1),
        ("combined", 1),
        ("combined", 2),
    ],
)
def test_pipeline_matches_operator_reference(kind, copies):
    circ = _generic_circuit()
    noise = NoiseModel("depolarizing-local", 0.08)
    obs = parse_observable("0.6*ZI + 0.4*IX")
    pipe = build_pipeline(kind, circ, noise, obs, n_copies=copies)
    rep = pipe.exact_report()
    assert rep.ratio == pytest.approx(pipe.operator_ratio, abs=1e-9)
    assert rep.exact_ratio == pipe.operator_ratio
    assert rep.imag_residual < 1e-9


def test_raw_readout_reads_each_pauli_as_a_sign():
    # each Pauli string is one +1/-1 outcome pair weighted by Tr(P rho),
    # whatever its X, Y and Z letters; the all-I string is the denominator
    circ = _generic_circuit()
    rho = prepare_noisy_state(circ, NoiseModel("amplitude-damping", 0.15)).matrix
    strings = ("XI", "IX", "YI", "IY", "ZI", "IZ", "XY", "YX", "ZY", "XZ", "YY", "ZZ", "II")
    obs = PauliObservable(tuple((1.0, s) for s in strings))
    pipe = build_pipeline("raw", circ, NoiseModel("amplitude-damping", 0.15), obs)
    for string, term in zip(strings, pipe.numerator_terms):
        want = np.trace(pauli_string_matrix(string) @ rho).real
        assert abs(term.value() - want) <= 1e-12
        assert set(term.observable.tolist()) <= {1.0, -1.0}
    assert pipe.denominator.value() == pytest.approx(1.0, abs=1e-12)


def test_pipeline_noiseless_recovers_ideal():
    circ = _generic_circuit()
    obs = parse_observable("ZI")
    for kind, copies in (
        ("raw", 1),
        ("multi-copy", 2),
        ("state-verification", 1),
        ("combined", 2),
    ):
        rep = build_pipeline(kind, circ, NO_NOISE, obs, n_copies=copies).exact_report()
        assert rep.ratio == pytest.approx(rep.ideal_value, abs=1e-10)


def test_pipeline_rejects_mismatched_observable():
    circ = _generic_circuit()
    with pytest.raises(ValueError):
        build_pipeline("raw", circ, NO_NOISE, PauliObservable.single("Z"))
    with pytest.raises(ValueError):
        build_pipeline("multi-copy", circ, NO_NOISE, PauliObservable.single("ZI"), n_copies=1)
    with pytest.raises(ValueError):
        build_pipeline("teleported", circ, NO_NOISE, PauliObservable.single("ZI"))


def test_pipeline_exposes_degree_and_copies():
    circ = _generic_circuit()
    obs = PauliObservable.single("ZI")
    pipe = build_pipeline("combined", circ, NO_NOISE, obs, n_copies=2)
    assert isinstance(pipe, SchemePipeline)
    assert pipe.degree == 4 and pipe.n_copies == 2
    assert pipe.resources.registers == 2
    assert len(pipe.numerator_terms) == 1


def test_depolarizing_machinery_cancels_in_the_ratio():
    # ancilla-diagonal junk branches read out as zero and the surviving
    # branch scales numerator and denominator alike, so the ratio is
    # unchanged by depolarizing machinery noise
    circ = _generic_circuit()
    noise = NoiseModel("depolarizing-local", 0.1)
    obs = PauliObservable.single("ZI")
    clean = build_pipeline("combined", circ, noise, obs, 2).exact_report()
    for kind in ("depolarizing-local", "depolarizing-global"):
        dirty = build_pipeline(
            "combined", circ, noise, obs, 2, machinery_noise=NoiseModel(kind, 0.05)
        ).exact_report()
        assert dirty.ratio == pytest.approx(clean.ratio, abs=1e-12)


def test_dephasing_machinery_biases_the_ratio():
    circ = _generic_circuit()
    obs = PauliObservable.single("ZI")
    mach = NoiseModel("dephasing", 0.05)
    clean = build_pipeline("combined", circ, NO_NOISE, obs, 2).exact_report()
    dirty = build_pipeline(
        "combined", circ, NO_NOISE, obs, 2, machinery_noise=mach
    ).exact_report()
    assert abs(clean.ratio - clean.ideal_value) < 1e-10
    assert abs(dirty.ratio - dirty.ideal_value) > 1e-6


def test_machinery_noise_not_suppressed_over_circuit_family():
    # paired comparison over 20 generic circuits: with ideal state prep
    # the machinery-noise runs carry strictly larger bias on every circuit
    rng = np.random.default_rng(7)
    mach = NoiseModel("dephasing", 0.05)
    prep = NoiseModel("depolarizing-local", 0.1)
    obs = PauliObservable.single("ZI")
    for _ in range(20):
        a = rng.uniform(0.3, 2.8, size=6)
        circ = GateCircuit(
            2,
            (
                Gate("RY", (0,), float(a[0])),
                Gate("RZ", (0,), float(a[1])),
                Gate("RY", (1,), float(a[2])),
                Gate("CNOT", (0, 1)),
                Gate("RY", (0,), float(a[3])),
                Gate("RZ", (1,), float(a[4])),
            ),
        )
        clean = build_pipeline("combined", circ, NO_NOISE, obs, 2).exact_report()
        dirty = build_pipeline(
            "combined", circ, NO_NOISE, obs, 2, machinery_noise=mach
        ).exact_report()
        bias_clean = abs(clean.ratio - clean.ideal_value)
        bias_dirty = abs(dirty.ratio - dirty.ideal_value)
        assert bias_clean <= 1e-10
        assert bias_dirty > 1e-6
        assert bias_dirty > bias_clean
        # and with noisy state prep the machinery still shifts the value
        shifted = build_pipeline(
            "combined", circ, prep, obs, 2, machinery_noise=mach
        ).exact_report()
        base = build_pipeline("combined", circ, prep, obs, 2).exact_report()
        assert abs(shifted.ratio - base.ratio) > 1e-6


def test_bias_ordering_under_global_depolarizing():
    circ = _generic_circuit()
    obs = PauliObservable.single("ZI")
    for p in (0.05, 0.2, 0.3):
        noise = NoiseModel("depolarizing-global", p)
        biases = {}
        for kind, copies in (
            ("raw", 1),
            ("state-verification", 1),
            ("combined", 2),
        ):
            rep = build_pipeline(kind, circ, noise, obs, n_copies=copies).exact_report()
            biases[kind] = abs(rep.ratio - rep.ideal_value)
        assert biases["combined"] <= biases["state-verification"] + 1e-12
        assert biases["state-verification"] <= biases["raw"] + 1e-12


def test_pipeline_dual_noise_override_changes_reference():
    circ = _generic_circuit()
    noise = NoiseModel("dephasing", 0.2)
    obs = PauliObservable.single("ZI")
    rho = prepare_noisy_state(circ, noise)
    same = build_pipeline("state-verification", circ, noise, obs)
    clean_dual = build_pipeline(
        "state-verification", circ, noise, obs, dual_noise=NO_NOISE
    )
    want_same = state_verification_estimate(rho, dual_state(circ, noise), obs)
    want_clean = state_verification_estimate(
        rho, dual_state(circ, noise, NO_NOISE), obs
    )
    assert same.exact_report().ratio == pytest.approx(want_same.ratio, abs=1e-9)
    assert clean_dual.exact_report().ratio == pytest.approx(want_clean.ratio, abs=1e-9)
    assert abs(want_same.ratio - want_clean.ratio) > 1e-6


# Exact pipelines recorded from a forward (Schrodinger-picture) evolution
# of every unit:
# (register width, kind, copies, machinery kind, dual-noise override) ->
# (ratio, numerator, denominator, operator_ratio). Amplitude-damping and
# global-depolarizing machinery are where the backward readout has its
# special cases.
_FROZEN_REGISTERS = {
    1: (11, 6, NoiseModel("amplitude-damping", 0.1), "0.5*Y + 0.3*Z + 0.2*X"),
    2: (12, 8, NoiseModel("depolarizing-local", 0.08), "0.6*ZY + 0.4*XI - 0.3*YZ"),
}
_FROZEN_PIPELINES = {
    (1, 'multi-copy', 2, 'none', False): (-0.037580600820444315, -0.018864599999999936, 0.501977072961999, -0.037580600820444225),
    (1, 'multi-copy', 2, 'depolarizing-local', False): (-0.037580600820444364, -0.016174036424999965, 0.4303825929307939, -0.037580600820444225),
    (1, 'multi-copy', 2, 'depolarizing-global', False): (-0.03758060082044429, -0.01617403642499993, 0.43038259293079384, -0.037580600820444225),
    (1, 'multi-copy', 2, 'dephasing', False): (-0.03758060082044438, -0.015280325999999966, 0.406601429099219, -0.037580600820444225),
    (1, 'multi-copy', 2, 'amplitude-damping', False): (0.06555158952930645, 0.03297469850000004, 0.503034308348204, -0.037580600820444225),
    (1, 'multi-copy', 3, 'none', False): (-0.05600404883689002, -0.01416709834529938, 0.2529656094429993, -0.05600404883689002),
    (1, 'multi-copy', 3, 'depolarizing-local', False): (-0.05600404883689004, -0.011539190146611004, 0.2060420699263819, -0.05600404883689002),
    (1, 'multi-copy', 3, 'depolarizing-global', False): (-0.05600404883688996, -0.011539190146610985, 0.20604206992638185, -0.05600404883689002),
    (1, 'multi-copy', 3, 'dephasing', False): (-0.056004048836890016, -0.010327814693723233, 0.18441192928394623, -0.05600404883689002),
    (1, 'multi-copy', 3, 'amplitude-damping', False): (0.1390017095573939, 0.03777227235781207, 0.2717396244843727, -0.05600404883689002),
    (1, 'multi-copy-recycled', 2, 'none', False): (-0.037580600820444315, -0.018864599999999936, 0.501977072961999, -0.037580600820444225),
    (1, 'multi-copy-recycled', 2, 'depolarizing-local', False): (-0.037580600820444364, -0.016174036424999965, 0.4303825929307939, -0.037580600820444225),
    (1, 'multi-copy-recycled', 2, 'depolarizing-global', False): (-0.03758060082044429, -0.01617403642499993, 0.43038259293079384, -0.037580600820444225),
    (1, 'multi-copy-recycled', 2, 'dephasing', False): (-0.03758060082044438, -0.015280325999999966, 0.406601429099219, -0.037580600820444225),
    (1, 'multi-copy-recycled', 2, 'amplitude-damping', False): (0.06555158952930645, 0.03297469850000004, 0.503034308348204, -0.037580600820444225),
    (1, 'state-verification', 1, 'none', False): (-0.2264870065772318, -0.08661532094429979, 0.38242953648099925, -0.22648700657723184),
    (1, 'state-verification', 1, 'depolarizing-local', False): (-0.2264870065772318, -0.07817032715223056, 0.3451426566741018, -0.22648700657723184),
    (1, 'state-verification', 1, 'depolarizing-global', False): (-0.22648700657723184, -0.07817032715223056, 0.34514265667410177, -0.22648700657723184),
    (1, 'state-verification', 1, 'dephasing', False): (-0.2264870065772318, -0.07795378884986978, 0.3441865828328992, -0.22648700657723184),
    (1, 'state-verification', 1, 'amplitude-damping', False): (-0.16513972835381777, -0.06163516207254612, 0.3732303709528369, -0.22648700657723184),
    (1, 'combined', 1, 'none', False): (-0.2264870065772318, -0.08661532094429979, 0.38242953648099925, -0.22648700657723184),
    (1, 'combined', 1, 'depolarizing-local', False): (-0.2264870065772318, -0.07817032715223056, 0.3451426566741018, -0.22648700657723184),
    (1, 'combined', 1, 'depolarizing-global', False): (-0.22648700657723184, -0.07817032715223056, 0.34514265667410177, -0.22648700657723184),
    (1, 'combined', 1, 'dephasing', False): (-0.2264870065772318, -0.07795378884986978, 0.3441865828328992, -0.22648700657723184),
    (1, 'combined', 1, 'amplitude-damping', False): (-0.16513972835381777, -0.06163516207254612, 0.3732303709528369, -0.22648700657723184),
    (1, 'combined', 2, 'none', False): (-0.28852590390159644, -0.03312425704088156, 0.11480514086589186, -0.28852590390159644),
    (1, 'combined', 2, 'depolarizing-local', False): (-0.2885259039015965, -0.028399909880425827, 0.09843105764989403, -0.28852590390159644),
    (1, 'combined', 2, 'depolarizing-global', False): (-0.28852590390159644, -0.028399909880425823, 0.09843105764989403, -0.28852590390159644),
    (1, 'combined', 2, 'dephasing', False): (-0.2885259039015965, -0.026830648203114055, 0.09299216410137237, -0.28852590390159644),
    (1, 'combined', 2, 'amplitude-damping', False): (-0.20382570634887345, -0.020794426653496626, 0.1020206284378298, -0.28852590390159644),
    (2, 'multi-copy', 2, 'none', False): (0.16420976379965765, 0.08735234644078053, 0.5319558619385983, 0.1642097637996577),
    (2, 'multi-copy', 2, 'depolarizing-local', False): (0.16420976379965768, 0.07114903212818101, 0.43328137427312546, 0.1642097637996577),
    (2, 'multi-copy', 2, 'depolarizing-global', False): (0.16420976379965763, 0.07114903212818098, 0.43328137427312546, 0.1642097637996577),
    (2, 'multi-copy', 2, 'dephasing', False): (0.16420976379965768, 0.06367986055532894, 0.3877958233532377, 0.1642097637996577),
    (2, 'multi-copy', 2, 'amplitude-damping', False): (0.21593355726684188, 0.11183933340560503, 0.5179340109115071, 0.1642097637996577),
    (2, 'multi-copy', 3, 'none', False): (0.1783235287896546, 0.06376279268184311, 0.35756802882168115, 0.17832352878965466),
    (2, 'multi-copy', 3, 'depolarizing-local', False): (0.17832352878965455, 0.04687151182402593, 0.26284535833358397, 0.17832352878965466),
    (2, 'multi-copy', 3, 'depolarizing-global', False): (0.17832352878965452, 0.04687151182402593, 0.262845358333584, 0.17832352878965466),
    (2, 'multi-copy', 3, 'dephasing', False): (0.1722416403678415, 0.03603820810127474, 0.20923052070516207, 0.17832352878965466),
    (2, 'multi-copy', 3, 'amplitude-damping', False): (0.2590200255116485, 0.08442153979790908, 0.3259266909234109, 0.17832352878965466),
    (2, 'multi-copy-recycled', 2, 'none', False): (0.16420976379965765, 0.08735234644078053, 0.5319558619385983, 0.1642097637996577),
    (2, 'multi-copy-recycled', 2, 'depolarizing-local', False): (0.16420976379965768, 0.07114903212818101, 0.43328137427312546, 0.1642097637996577),
    (2, 'multi-copy-recycled', 2, 'depolarizing-global', False): (0.16420976379965763, 0.07114903212818098, 0.43328137427312546, 0.1642097637996577),
    (2, 'multi-copy-recycled', 2, 'dephasing', False): (0.16420976379965768, 0.06367986055532894, 0.3877958233532377, 0.1642097637996577),
    (2, 'multi-copy-recycled', 2, 'amplitude-damping', False): (0.21593355726684188, 0.11183933340560503, 0.5179340109115071, 0.1642097637996577),
    (2, 'state-verification', 1, 'none', False): (0.16420976379965757, 0.08735234644078055, 0.5319558619385987, 0.16420976379965765),
    (2, 'state-verification', 1, 'depolarizing-local', False): (0.16420976379965782, 0.07883549266280451, 0.48009016539958504, 0.16420976379965765),
    (2, 'state-verification', 1, 'depolarizing-global', False): (0.16420976379965782, 0.07883549266280451, 0.48009016539958504, 0.16420976379965765),
    (2, 'state-verification', 1, 'dephasing', False): (0.16420976379965768, 0.07861711179670247, 0.4787602757447384, 0.16420976379965765),
    (2, 'state-verification', 1, 'amplitude-damping', False): (0.1817758877099615, 0.09437075347565939, 0.5191599098458853, 0.16420976379965765),
    (2, 'combined', 1, 'none', False): (0.16420976379965757, 0.08735234644078055, 0.5319558619385987, 0.16420976379965765),
    (2, 'combined', 1, 'depolarizing-local', False): (0.16420976379965782, 0.07883549266280451, 0.48009016539958504, 0.16420976379965765),
    (2, 'combined', 1, 'depolarizing-global', False): (0.16420976379965782, 0.07883549266280451, 0.48009016539958504, 0.16420976379965765),
    (2, 'combined', 1, 'dephasing', False): (0.16420976379965768, 0.07861711179670247, 0.4787602757447384, 0.16420976379965765),
    (2, 'combined', 1, 'amplitude-damping', False): (0.1817758877099615, 0.09437075347565939, 0.5191599098458853, 0.16420976379965765),
    (2, 'combined', 2, 'none', False): (0.18081683250156688, 0.04535095251931739, 0.2508115637902483, 0.1808168325015668),
    (2, 'combined', 2, 'depolarizing-local', False): (0.18081683250156685, 0.03693863427043724, 0.2042875862794309, 0.1808168325015668),
    (2, 'combined', 2, 'depolarizing-global', False): (0.1808168325015668, 0.03693863427043723, 0.20428758627943092, 0.1808168325015668),
    (2, 'combined', 2, 'dephasing', False): (0.17368814179970418, 0.03116967811446695, 0.17945772112877792, 0.1808168325015668),
    (2, 'combined', 2, 'amplitude-damping', False): (0.20176255227586196, 0.04036973777239939, 0.20008538411629254, 0.1808168325015668),
    (1, 'state-verification', 1, 'depolarizing-global', True): (-0.3, -0.1438876507499995, 0.4796255024999984, -0.29999999999999993),
    (1, 'state-verification', 1, 'amplitude-damping', True): (-0.23541353186174785, -0.12209897805188874, 0.5186574326729623, -0.29999999999999993),
    (1, 'combined', 2, 'depolarizing-global', True): (-0.3, -0.07264440715211878, 0.24214802384039594, -0.3),
    (1, 'combined', 2, 'amplitude-damping', True): (-0.23382375796848592, -0.056768960816159245, 0.2427852554820815, -0.3),
    (2, 'state-verification', 1, 'depolarizing-global', True): (0.16697414883941555, 0.09706738769512537, 0.5813318311236203, 0.1669741488394156),
    (2, 'state-verification', 1, 'amplitude-damping', True): (0.1825752355736273, 0.11477420997369489, 0.6286406237575949, 0.1669741488394156),
    (2, 'combined', 2, 'depolarizing-global', True): (0.17329686512008138, 0.05630819360516133, 0.32492332487459646, 0.17329686512008144),
    (2, 'combined', 2, 'amplitude-damping', True): (0.19141594463090003, 0.05919444587674489, 0.3092451153475603, 0.17329686512008144),
}


@pytest.mark.parametrize("case", sorted(_FROZEN_PIPELINES), ids=str)
def test_exact_pipelines_are_frozen(case):
    n, kind, copies, machinery, dual = case
    seed, gates, noise, text = _FROZEN_REGISTERS[n]
    pipe = build_pipeline(
        kind,
        random_circuit(np.random.default_rng(seed), n, gates),
        noise,
        parse_observable(text),
        n_copies=copies,
        machinery_noise=NoiseModel(machinery, 0.05),
        dual_noise=NoiseModel("dephasing", 0.05) if dual else None,
    )
    rep = pipe.exact_report()
    got = (rep.ratio, rep.numerator, rep.denominator, pipe.operator_ratio)
    assert np.max(np.abs(np.subtract(got, _FROZEN_PIPELINES[case]))) <= 1e-12


@pytest.mark.parametrize("machinery", NOISE_KINDS)
def test_outcome_probabilities_match_a_forward_evolution(machinery):
    # the exact value reads only W_Z; the sampler also reads W_P through
    # the outcome probabilities, so those are checked unit by unit. M = 3
    # (nq = 7) checks the one folded global layer over 2n Fredkins and the
    # prefix Hadamard
    circ = _generic_circuit()
    noise = NoiseModel("amplitude-damping", 0.1)
    mach = NoiseModel(machinery, 0.05)
    obs = parse_observable("0.6*ZY + 0.4*XI")
    cases = (
        ("multi-copy", 2), ("multi-copy", 3), ("state-verification", 1),
        ("combined", 2), ("combined", 3),
    )
    # the inverse circuits under the state's noise, and under noise of
    # another kind and strength, local or global
    duals = (None, NoiseModel("dephasing", 0.07), NoiseModel("depolarizing-global", 0.07))
    for (kind, copies), dual in iproduct(cases, duals):
        pipe = build_pipeline(
            kind, circ, noise, obs, n_copies=copies, machinery_noise=mach, dual_noise=dual
        )
        want = forward_outcomes(kind, circ, noise, obs, copies, mach, dual_noise=dual)
        for term, probs in zip((*pipe.numerator_terms, pipe.denominator), want):
            assert np.max(np.abs(term.state - probs)) <= 1e-12, (kind, copies, dual)


def test_forward_outcomes_refuse_a_composite_past_seven_qubits():
    circ = random_circuit(np.random.default_rng(0), 2, 4)
    with pytest.raises(ValueError, match="9-qubit composite is wider than 7"):
        forward_outcomes("combined", circ, NO_NOISE, parse_observable("ZZ"), 4, NO_NOISE)


@pytest.mark.parametrize("machinery", ["dephasing", "amplitude-damping"])
@pytest.mark.parametrize("kind", ["state-verification", "combined"])
def test_one_register_build_noises_only_the_ancilla(monkeypatch, kind, machinery):
    # one register has no Fredkin, so per-qubit machinery noise reaches the
    # ancilla's Hadamards alone, read off its 4 x 4 superoperators, and the
    # odd block is the chain's tail: no matrix goes through apply_noise.
    # test_outcome_probabilities_match_a_forward_evolution checks the
    # ancilla's noise itself
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return apply_noise(*args, **kwargs)

    monkeypatch.setattr(schemes, "apply_noise", recording)
    build_pipeline(
        kind, random_circuit(np.random.default_rng(3), 3, 8),
        NoiseModel("depolarizing-local", 0.02), parse_observable("0.5*XYZ + 0.5*ZZI"),
        n_copies=1, machinery_noise=NoiseModel(machinery, 0.05),
    )
    assert not calls, [args[3] for args in calls]


def test_pipeline_build_is_independent_of_the_number_of_terms(monkeypatch):
    # each term is scored from the reduced effects and its Pauli string, so
    # adding observable terms adds no phase of the sweep: a verified build
    # reduces its even pair once per register pair, M - 1 times, under
    # every machinery kind, and multi-copy, whose even part is I, never
    calls = []
    phase = schemes._phase

    def counting(*args):
        calls.append(args)
        return phase(*args)

    monkeypatch.setattr(schemes, "_phase", counting)
    circ = _generic_circuit()
    cases = [
        *iproduct([("combined", 2), ("combined", 3), ("multi-copy", 2), ("multi-copy", 3)],
                  NOISE_KINDS),
        *iproduct([(kind, 2) for kind in SCHEME_KINDS], ["dephasing"]),
    ]
    for (kind, copies), machinery in cases:
        counts = []
        for text in ("ZX", "0.4*ZX + 0.3*YY - 0.2*XI + 0.1*IZ"):
            calls.clear()
            pipe = build_pipeline(
                kind, circ, NoiseModel("depolarizing-local", 0.05), parse_observable(text),
                n_copies=copies, machinery_noise=NoiseModel(machinery, 0.03),
            )
            counts.append(len(calls))
        phases = pipe.n_copies - 1 if kind in ("state-verification", "combined") else 0
        assert counts == [phases, phases], (kind, copies, machinery, counts)


def test_pipeline_build_reads_each_pauli_string_once(monkeypatch):
    # one signed permutation per term and one for the all-I denominator,
    # shared by the ideal, raw and ancilla readouts and the operator ratio
    calls = []
    permutation = observables.pauli_permutation

    def counting(string):
        calls.append(string)
        return permutation(string)

    monkeypatch.setattr(observables, "pauli_permutation", counting)
    obs = parse_observable("0.6*ZY - 0.4*XI + 0.3*YY")
    for kind in SCHEME_KINDS:
        calls.clear()
        build_pipeline(
            kind, _generic_circuit(), NoiseModel("dephasing", 0.05), obs, n_copies=2,
            machinery_noise=NoiseModel("dephasing", 0.03),
        )
        assert sorted(calls) == sorted(["ZY", "XI", "YY", "II"]), kind


@pytest.mark.parametrize(
    "kind", ["multi-copy", "multi-copy-recycled", "state-verification", "combined"]
)
def test_pipeline_without_fredkins_calls_no_estimator(monkeypatch, kind):
    # with Fredkins or without, the build reads the operator chain itself:
    # its traces give the operator ratio, and with unwritten machinery the
    # odd block's traces too
    def refuse(*args, **kwargs):
        raise AssertionError("a build called an estimator")

    circ = _generic_circuit()
    noise = NoiseModel("amplitude-damping", 0.1)
    obs = parse_observable("0.6*ZY - 0.4*XI")
    rho, rbar = prepare_noisy_state(circ, noise), dual_state(circ, noise)
    if kind == "state-verification":
        want = {1: state_verification_estimate(rho, rbar, obs).ratio}
    elif kind == "combined":
        want = {m: combined_estimate(rho, rbar, obs, m).ratio for m in (1, 2, 3)}
    else:
        want = {m: multicopy_estimate(rho, obs, m, kind=kind).ratio for m in (2, 3)}
    for name in ("multicopy_estimate", "state_verification_estimate", "combined_estimate"):
        monkeypatch.setattr(schemes, name, refuse)
    for copies, machinery in iproduct(want, ("none", "depolarizing-local", "dephasing")):
        pipe = build_pipeline(
            kind, circ, noise, obs, n_copies=copies, machinery_noise=NoiseModel(machinery, 0.03)
        )
        assert pipe.operator_ratio == pytest.approx(want[copies], abs=1e-12), (copies, machinery)


@pytest.mark.parametrize(
    "kind,quantity",
    [("state-verification", "state/dual overlap"), ("combined", "verified chain trace")],
)
def test_pipeline_without_fredkins_raises_on_a_vanishing_overlap(monkeypatch, kind, quantity):
    # |0> against a dual of |1>: the operator ratio's denominator, Tr(rbar
    # rho) or for combined M = 2 Tr((rho rbar)^2), vanishes, and the build
    # names it as the estimators do
    orthogonal = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
    monkeypatch.setattr(schemes, "dual_state", lambda *args: orthogonal)
    for copies in (1, 2) if kind == "combined" else (1,):
        with pytest.raises(VanishingDenominatorError, match=quantity):
            build_pipeline(
                kind, GateCircuit(1, ()), NO_NOISE, PauliObservable.single("Z"), n_copies=copies
            )


@pytest.mark.parametrize(
    "machinery",
    [NoiseModel("dephasing", 0.5), NoiseModel("depolarizing-local", 1.0),
     NoiseModel("depolarizing-global", 1.0)],
    ids=lambda noise: noise.kind,
)
@pytest.mark.parametrize(
    "kind,copies",
    [("multi-copy", 2), ("multi-copy-recycled", 2), ("state-verification", 1), ("combined", 2)],
)
def test_pipeline_exact_report_raises_on_a_vanishing_denominator(kind, copies, machinery):
    # this machinery noise zeroes the ancilla coherence, so every unit reads
    # +1 and -1 equally often: the build succeeds, but its denominator is
    # exactly 0 and the readout refuses to divide by it
    circ = random_circuit(np.random.default_rng(0), 2, 6)
    pipe = build_pipeline(
        kind, circ, NoiseModel("depolarizing-local", 0.05), parse_observable("0.5*XZ + 0.5*ZZ"),
        n_copies=copies, machinery_noise=machinery,
    )
    with pytest.raises(
        VanishingDenominatorError, match="pipeline denominator 0.000e\\+00 is numerically zero"
    ):
        pipe.exact_report()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "kind,copies",
    [("raw", 1), ("multi-copy", 2), ("state-verification", 1), ("combined", 2)],
)
def test_pipeline_exact_report_raises_on_a_non_finite_denominator(kind, copies, bad):
    # a denominator unit with one non-finite outcome probability: the
    # readout refuses it rather than reporting a NaN or zero ratio
    pipe = build_pipeline(
        kind, _generic_circuit(), NoiseModel("dephasing", 0.05),
        parse_observable("0.6*ZY - 0.4*XI"), n_copies=copies,
    )
    probs = pipe.denominator.state.copy()
    probs[0] = bad
    broken = replace(pipe, denominator=replace(pipe.denominator, state=probs))
    with pytest.raises(
        VanishingDenominatorError, match="pipeline denominator .* is not finite"
    ):
        broken.exact_report()


@pytest.mark.parametrize("machinery", NOISE_KINDS)
def test_pipeline_build_allocates_no_block_the_machinery_does_not_write(machinery):
    # under every machinery kind the odd block reduces to a register chain
    # and the even pair, one register pair at a time, to register terms,
    # so a build holds register-size matrices only: under one parity block
    # at n = 4, M = 2 (nq = 9) and under 16 MB at nq = 13, where a block
    # would take 256 MB
    def peak(kind, n, copies, machinery):
        circ = random_circuit(np.random.default_rng(0), n, 8)
        obs = parse_observable(f"0.5*{'XYZIXY'[:n]} + 0.5*{'ZZXYZX'[:n]}")
        tracemalloc.start()
        try:
            build_pipeline(
                kind, circ, NoiseModel("depolarizing-local", 0.02), obs,
                n_copies=copies, machinery_noise=NoiseModel(machinery, 0.01),
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = 16 * 4**8
    for kind in SCHEME_KINDS:
        assert peak(kind, 4, 2, machinery) <= block, kind
    splits = [("combined", 6, 2), ("combined", 3, 4), ("combined", 2, 6), ("multi-copy", 4, 3)]
    if machinery == "amplitude-damping":
        splits.append(("multi-copy", 3, 4))
    for kind, n, copies in splits:
        assert peak(kind, n, copies, machinery) <= 16 * 2**20, (kind, n, copies)


def test_state_verification_build_holds_no_scaled_register_copy():
    # rho, the dual, rho^T and the two gather buffers of the Pauli-string
    # readout: the even pair is the dual itself, read with its scalar
    # apart, so the build peaks under 5.5 register matrices at n = 9
    register = 16 * 4**9
    circ = random_circuit(np.random.default_rng(0), 9, 8)
    obs = parse_observable("0.5*XYZIXYZXY + 0.5*ZZXYZXYZI")
    tracemalloc.start()
    try:
        build_pipeline(
            "state-verification", circ, NoiseModel("depolarizing-local", 0.02), obs,
            machinery_noise=NoiseModel("dephasing", 0.01),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * register, peak / register


def _composite_steps(mat, noise, fredkins, nq):
    """Backward Fredkin steps on the whole composite, last Fredkin first:
    the adjoint noise on (ancilla, a, b), then the Fredkin."""
    for a, b in fredkins:
        mat = apply_noise(mat, noise, [0, a, b], nq, adjoint=True)
        mat = apply_local(mat, [fredkin_matrix()], [0, a, b], nq)
    return mat


def _composite_reduction(block, rho, n, copies):
    """Tr_{2..M}[W (I (x) rho^(x)(M-1))] of a dense block W."""
    d, others = 2**n, kron_power(rho, copies - 1)
    e = others.shape[0]
    return np.einsum("ikjl,lk->ij", block.reshape(d, e, d, e), others)


def _backward_fredkins(n, copies):
    """The Fredkin list of M = ``copies`` registers, last first."""
    return [
        (1 + r * n + i, 1 + (r + 1) * n + i)
        for r in reversed(range(copies - 1))
        for i in reversed(range(n))
    ]


_ODD_FACTORS = {
    "depolarizing-local": lambda p: 1 - p,
    "depolarizing-global": lambda p: 1 - p,
    "dephasing": lambda p: 1 - 2 * p,
    "amplitude-damping": lambda p: np.sqrt(1 - p),
}


@pytest.mark.parametrize("kind", list(_ODD_FACTORS))
def test_odd_factor_is_the_ancilla_coherence_under_the_noise(kind):
    # a build reads the scalar each Fredkin leaves on the odd block off
    # noise_superoperator, for every kind; it passes global machinery as
    # no noise, since it folds it into one layer
    for p in (0.0, 0.07, 0.3):
        odd_factor = noise_superoperator(NoiseModel(kind, p), 1, adjoint=True)[1, 1]
        assert odd_factor == pytest.approx(_ODD_FACTORS[kind](p), abs=1e-15), p


# the machinery kinds the sweep sees: a build passes global depolarizing
# as no noise
_SWEPT_KINDS = ["none", "depolarizing-local", "dephasing", "amplitude-damping"]


def _noisy(noise, n):
    """N, the per-qubit adjoint machinery noise on every qubit of an n-qubit
    register, or the identity under the other kinds."""
    if noise.kind not in PER_QUBIT_KINDS:
        return lambda x: x
    return lambda x: apply_noise(x, noise, range(n), n, adjoint=True)


@pytest.mark.parametrize(
    "n,copies", [(n, m) for n in (1, 2, 3) for m in (2, 3, 4) if n * m <= 8], ids=str
)
@pytest.mark.parametrize("machinery", _SWEPT_KINDS)
def test_register_reductions_match_the_composite(machinery, n, copies):
    # the sweep's V_01, V_00 and V_11 against the reduction of the
    # composite effect after the whole backward Fredkin list, on random
    # full-rank states. V_01 is the chain after its first rho, the tail,
    # unless N writes it, and
    # every written kind moves the even pair off rbar Tr(rbar rho)^(M-1)
    rng = np.random.default_rng([24, n, copies])
    noise = NoiseModel(machinery, 0.07)
    odd_factor = noise_superoperator(noise, 1, adjoint=True)[1, 1].real
    nq = 1 + copies * n
    half = 2 ** (nq - 1)
    rho, rbar = (random_density(rng, 2**n).matrix for _ in range(2))
    fredkins = _backward_fredkins(n, copies)
    v_01, (v_00, v_11) = schemes._sweep(noise, rho, rbar, copies, True)
    registers = kron_power(rbar, copies)
    zero = np.zeros((half, half), dtype=complex)
    odd = np.block([[zero, registers], [registers, zero]])
    want = _composite_steps(odd, noise, fredkins, nq).reshape(2, half, 2, half)
    want = _composite_reduction(want[0, :, 1], rho, n, copies)
    tail = reduce(np.matmul, ([rho, rbar] * copies)[1:])
    assert (v_01 is None) == (_noisy(noise, n)(rbar) is rbar)
    got = tail if v_01 is None else v_01
    assert np.max(np.abs(want - odd_factor ** len(fredkins) * got)) <= 1e-13
    if v_01 is not None:
        assert np.max(np.abs(got - tail)) > 1e-5
    even = np.block([[registers, zero], [zero, registers]])
    want = _composite_steps(even, noise, fredkins, nq).reshape(2, half, 2, half)
    unwritten = np.vdot(rbar, rho) ** (copies - 1) * rbar
    for a, got in enumerate([v_00, v_11]):
        block = _composite_reduction(want[a, :, a], rho, n, copies)
        assert np.max(np.abs(block - got)) <= 1e-13, a
        moved = np.max(np.abs(got - unwritten))
        assert moved <= 1e-13 if machinery == "none" else moved > 1e-5, a


def _term_matrix(key, f, g, n):
    """T_key(F (x) G) on 2n qubits, column i being qubits i and n + i: a
    traced column fully depolarized, a swapped one conjugated by its swap."""
    mat = np.kron(f, g)
    for i, state in enumerate(key):
        if state == schemes._TRACED:
            mat = apply_local(mat, depolarizing_channel(2, 1.0).ops, [i, n + i], 2 * n)
        elif state == schemes._SWAPPED:
            mat = apply_local(mat, [SWAP_GATE], [i, n + i], 2 * n)
    return mat


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("machinery", _SWEPT_KINDS)
def test_phase_terms_match_the_composite_after_one_register_pair(machinery, n):
    # one phase: the n backward Fredkins of one register pair on the
    # (2n + 1)-qubit composite diag(rbar (x) Y_0, rbar (x) Y_1), against
    # the phase's terms per block, unreduced, on random Hermitian blocks
    rng = np.random.default_rng([27, n])
    noise = NoiseModel(machinery, 0.1)
    nq = 1 + 2 * n
    half = 4**n
    noisy = _noisy(noise, n)
    rbar, y_0, y_1 = (random_hermitian(rng, 2**n) for _ in range(3))
    zero = np.zeros((half, half), dtype=complex)
    pair = np.block([[np.kron(rbar, y_0), zero], [zero, np.kron(rbar, y_1)]])
    want = _composite_steps(pair, noise, _backward_fredkins(n, 2), nq).reshape(2, half, 2, half)
    # a term lands in W_00 when its column 0 is kept, W_11 when swapped,
    # and in both when traced
    blocks = {schemes._KEPT: (0,), schemes._SWAPPED: (1,), schemes._TRACED: (0, 1)}
    got = [zero.copy(), zero.copy()]
    for key, w in schemes._phase_terms(noise, n).items():
        term = _term_matrix(key, noisy(rbar), noisy(w[0] * y_0 + w[1] * y_1), n)
        for j in blocks[key[0]]:
            got[j] += term
    for j in (0, 1):
        assert np.max(np.abs(want[j, :, j] - got[j])) <= 1e-13, j


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_trace_matches_the_dense_term(n):
    # every key, those with more columns swapped than kept included (they
    # exchange the registers), on random F, G and rho, reduced as _phase
    # reduces them: the term on the kept columns of Tr_T F, Tr_T G and
    # Tr_T rho, over 4^|T|, embedded as I_T (x) that term
    rng = np.random.default_rng([31, n])
    d = 2**n
    dims = [2] * n
    for key in iproduct(range(3), repeat=n):
        f, g, rho = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
        kept = [i for i, state in enumerate(key) if state != schemes._TRACED]
        f_t, g_t, rho_t = (linalg.partial_trace(x, dims, kept) for x in (f, g, rho))
        reduced = schemes._pair_trace(tuple(key[i] for i in kept), f_t, g_t, rho_t)
        reduced /= 4 ** (n - len(kept))
        got = np.zeros((d, d), dtype=complex)
        linalg._add_embedded(got, reduced, dims, kept)
        full = _term_matrix(key, f, g, n) @ np.kron(np.eye(d), rho)
        want = linalg.partial_trace(full, [d, d], [0])
        assert np.max(np.abs(got - want)) <= 1e-13, key


def test_local_depolarizing_phase_holds_reduced_registers():
    # a set T of traced columns holds Tr_T F and Tr_T rho on its kept
    # columns, 2 * 5^n entries over all 2^n sets, not a full register per
    # set (8^n entries): one M = 2 sweep at n = 7 peaks under 20 registers
    register = 16 * 4**7
    rng = np.random.default_rng(7)
    rho, rbar = (random_density(rng, 2**7).matrix for _ in range(2))
    tracemalloc.start()
    try:
        schemes._sweep(NoiseModel("depolarizing-local", 0.01), rho, rbar, 2, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * register, peak / register


@pytest.mark.parametrize("n,terms", [(4, 41), (6, 239)])
def test_even_pair_phase_reduces_each_key_once(monkeypatch, n, terms):
    # a key whose column 0 is traced lies in both blocks, and is reduced
    # once and added into each, so one M = 2 local-depolarizing sweep makes
    # one _pair_trace call per key of the column chain
    calls = []
    pair_trace = schemes._pair_trace

    def counting(*args):
        calls.append(args[0])
        return pair_trace(*args)

    monkeypatch.setattr(schemes, "_pair_trace", counting)
    noise = NoiseModel("depolarizing-local", 0.05)
    rng = np.random.default_rng([28, n])
    rho, rbar = (random_density(rng, 2**n).matrix for _ in range(2))
    schemes._sweep(noise, rho, rbar, 2, True)
    assert len(calls) == len(schemes._phase_terms(noise, n)) == terms


@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("machinery", ["none", "dephasing", "depolarizing-local"])
def test_unital_even_pair_keeps_its_trace(machinery, n, copies):
    # unital machinery noise and the Fredkins keep Tr(W_00) + Tr(W_11) =
    # 2 Tr(rbar)^M, and with rho = I/d each traced register reads it over
    # d: a check of the even pair where no dense composite reaches
    d = 2**n
    rbar = random_density(np.random.default_rng([29, n]), d).matrix
    noise = NoiseModel(machinery, 0.1)
    _, (v_00, v_11) = schemes._sweep(noise, np.eye(d) / d, rbar, copies, True)
    want = 2 * np.trace(rbar).real ** copies / d ** (copies - 1)
    assert abs(np.trace(v_00) + np.trace(v_11) - want) <= 1e-12


def test_combined_build_searches_no_einsum_path(monkeypatch):
    # each even-pair term is contracted in a fixed order, so no build asks
    # numpy for a contraction path
    def refuse(*args, **kwargs):
        raise AssertionError("called einsum_path")

    monkeypatch.setattr(np, "einsum_path", refuse)
    # np.einsum reads einsum_path from its own module
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", refuse)
    build_pipeline(
        "combined", random_circuit(np.random.default_rng(3), 3, 8),
        NoiseModel("depolarizing-local", 0.02), parse_observable("0.5*XYZ + 0.5*ZZI"),
        n_copies=3, machinery_noise=NoiseModel("depolarizing-local", 0.05),
    )


@pytest.mark.parametrize(
    "kind,copies",
    [
        ("raw", 1),
        ("multi-copy", 2),
        ("multi-copy-recycled", 2),
        ("state-verification", 1),
        ("combined", 1),
        ("combined", 2),
    ],
)
def test_estimators_and_builds_need_no_dense_observable(monkeypatch, kind, copies):
    # every readout takes the Pauli strings as signed permutations
    def refuse(self):
        raise AssertionError("called PauliObservable.matrix")

    circ = _generic_circuit()
    noise = NoiseModel("amplitude-damping", 0.05)
    obs = parse_observable("0.6*ZY - 0.4*XI")
    rho = prepare_noisy_state(circ, noise)
    rbar = dual_state(circ, noise)
    monkeypatch.setattr(PauliObservable, "matrix", refuse)
    multicopy_estimate(rho, obs, 2)
    state_verification_estimate(rho, rbar, obs)
    combined_estimate(rho, rbar, obs, 2)
    pipe = build_pipeline(kind, circ, noise, obs, n_copies=copies)
    assert np.isfinite(pipe.exact_report().ratio)


@pytest.mark.parametrize(
    "module", [channels, circuits, linalg, schemes, sampling], ids=lambda m: m.__name__
)
def test_hot_path_modules_hold_no_reference_oracle(module):
    # the dense oracles live in puremit.reference alone: no module on the
    # path of a run imports them or defines a name reference defines
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    leaked = defined & set(vars(module))
    leaked.update(
        name
        for name, obj in vars(module).items()
        if getattr(obj, "__module__", None) == reference.__name__
    )
    assert not leaked, f"{module.__name__} holds {sorted(leaked)}"


@pytest.mark.parametrize(
    "kind,copies",
    [
        ("raw", 1),
        ("multi-copy", 2),
        ("multi-copy-recycled", 2),
        ("state-verification", 1),
        ("combined", 2),
    ],
)
def test_pipelines_build_and_sample_without_the_reference(monkeypatch, kind, copies):
    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline called into puremit.reference")

    for name, obj in vars(reference).items():
        if inspect.isfunction(obj) and obj.__module__ == reference.__name__:
            monkeypatch.setattr(reference, name, refuse)
    with pytest.raises(AssertionError):
        reference.fredkin_matrix()
    pipe = build_pipeline(
        kind,
        _generic_circuit(),
        NoiseModel("amplitude-damping", 0.05),
        parse_observable("0.6*ZY - 0.4*XI"),
        n_copies=copies,
        machinery_noise=NoiseModel("dephasing", 0.03),
    )
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=3000, trials=2, seed=1))
    assert rep.shots_used == 6000
    assert np.isfinite(pipe.exact_report().ratio)
