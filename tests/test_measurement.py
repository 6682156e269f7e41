import tracemalloc
import warnings

import numpy as np
import pytest

from puremit.linalg import (
    MAX_QUBITS,
    DimensionCapError,
    random_density,
    random_hermitian,
    random_unitary,
)
from puremit.measurement import (
    antisymmetric_product_measure,
    hadamard_test,
    involution_projectors,
    product_expectation,
    symmetric_product_measure,
    symmetrized_verified_estimate,
)
from puremit.observables import PauliObservable
from puremit.schemes import VanishingDenominatorError, state_verification_estimate


def test_hadamard_test_reconstructs_complex_trace():
    rng = np.random.default_rng(0)
    for _ in range(25):
        d = int(2 ** rng.integers(1, 4))
        u = random_unitary(rng, d)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        re = hadamard_test(u, s, rho, "real")
        im = hadamard_test(u, s, rho, "imag")
        want = complex(np.trace(s @ u @ rho))
        assert abs(complex(re, im) - want) < 1e-10


def test_hadamard_test_identity_unitary_reads_companion():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 4).matrix
    s = random_hermitian(rng, 4)
    re = hadamard_test(np.eye(4), s, rho, "real")
    assert re == pytest.approx(np.trace(s @ rho).real, abs=1e-12)
    assert hadamard_test(np.eye(4), s, rho, "imag") == pytest.approx(0.0, abs=1e-12)


def test_hadamard_test_validation():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        hadamard_test(np.eye(2) * 2.0, np.eye(2), rho)  # not unitary
    with pytest.raises(ValueError):
        hadamard_test(np.eye(2), np.eye(2), rho, part="modulus")
    with pytest.raises(ValueError):
        hadamard_test(np.eye(4), np.eye(2), rho)


def test_hadamard_test_refuses_a_composite_past_the_cap():
    # a valid register at the cap: the ancilla doubles it, so the test must
    # refuse before it builds any 2d x 2d matrix (zero-stride inputs hold
    # one element each)
    d = 2**MAX_QUBITS
    zero = np.broadcast_to(np.complex128(0.0), (d, d))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError):
            hadamard_test(zero, zero, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_involution_projectors_split_identity():
    obs = PauliObservable.single("XY")
    p_plus, p_minus = involution_projectors(obs)
    eye = np.eye(4)
    assert np.max(np.abs(p_plus + p_minus - eye)) < 1e-12
    assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-12
    assert np.max(np.abs(p_plus @ p_minus)) < 1e-12
    g = obs.matrix()
    assert np.max(np.abs(p_plus - p_minus - g)) < 1e-12


def test_involution_projectors_reject_non_involutions():
    with pytest.raises(ValueError):
        involution_projectors(PauliObservable.single("Z", 2.0))
    with pytest.raises(ValueError):
        involution_projectors(PauliObservable(((1.0, "X"), (1.0, "Z"))))


def test_symmetric_measure_is_anticommutator_half():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join("IXYZ"[rng.integers(4)] for _ in range(n))
        obs = PauliObservable.single(string)
        g = obs.matrix()
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        got = symmetric_product_measure(s, obs, rho)
        want = np.trace((s @ g + g @ s) / 2.0 @ rho)
        assert abs(got - want) < 1e-10
        assert abs(got - np.trace(s @ g @ rho).real) < 1e-10


def test_antisymmetric_measure_is_commutator_half():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join("IXYZ"[rng.integers(4)] for _ in range(n))
        obs = PauliObservable.single(string)
        g = obs.matrix()
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        got = antisymmetric_product_measure(s, obs, rho)
        want = 1j * np.trace((s @ g - g @ s) / 2.0 @ rho)
        assert abs(want.imag) < 1e-10  # the signed average is real
        assert abs(got - want.real) < 1e-10
        assert abs(got + np.trace(s @ g @ rho).imag) < 1e-10


def test_anticommuting_pair_kills_symmetric_half():
    # S = X anticommutes with G = Z: the projective half vanishes exactly
    obs = PauliObservable.single("Z")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2).matrix
    assert abs(symmetric_product_measure(x, obs, rho)) < 1e-12


def test_commuting_pair_kills_antisymmetric_half():
    obs = PauliObservable.single("Z")
    z = np.diag([1.0, -1.0]).astype(complex)
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2).matrix
    assert abs(antisymmetric_product_measure(z, obs, rho)) < 1e-12


@pytest.mark.parametrize("measure", [symmetric_product_measure, antisymmetric_product_measure])
def test_product_measures_share_one_operand_check(measure):
    # companion and state of one size, the observable of another: both
    # halves refuse it with the same message before any product
    rho = np.eye(2, dtype=complex) / 2
    for companion, string, shapes in [(2, "XZ", (2, 2, 4)), (4, "X", (4, 2, 2))]:
        with pytest.raises(ValueError) as err:
            measure(np.eye(companion), PauliObservable.single(string), rho)
        a, b, c = ((k, k) for k in shapes)
        assert str(err.value) == f"dimension mismatch: companion {a}, state {b}, projectors {c}"


def test_product_expectation_reassembles_trace():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join("IXYZ"[rng.integers(4)] for _ in range(n))
        obs = PauliObservable.single(string)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        got = product_expectation(s, obs, rho)
        want = complex(np.trace(s @ obs.matrix() @ rho))
        assert abs(got - want) < 1e-10


def test_product_expectation_pure_state_example():
    # |+i> with S = |0><0| and G = X: Tr(S X rho) = rho[1,0] = i/2, a
    # purely imaginary value only the rotation half can see
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    s = np.diag([1.0, 0.0]).astype(complex)
    obs = PauliObservable.single("X")
    got = product_expectation(s, obs, rho)
    assert abs(got - 0.5j) < 1e-12
    assert symmetric_product_measure(s, obs, rho) == pytest.approx(0.0, abs=1e-12)


def test_symmetrized_verified_estimate_matches_scheme():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density(rng, 4).matrix
        rbar = random_density(rng, 4).matrix
        string = "".join("IXYZ"[rng.integers(4)] for _ in range(2))
        obs = PauliObservable.single(string)
        got = symmetrized_verified_estimate(rho, rbar, obs)
        want = state_verification_estimate(rho, rbar, obs)
        assert got == pytest.approx(want.ratio, abs=1e-10)


def test_symmetrized_verified_estimate_zero_overlap():
    rho = np.diag([1.0, 0.0]).astype(complex)
    rbar = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ZeroDivisionError):
        symmetrized_verified_estimate(rho, rbar, PauliObservable.single("Z"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["state", "dual"])
def test_symmetrized_verified_estimate_raises_on_a_non_finite_entry(operand, bad):
    rng = np.random.default_rng(8)
    rho, rbar = (random_density(rng, 4).matrix.copy() for _ in range(2))
    (rho if operand == "state" else rbar)[2, 1] = bad
    # checked before any product: the package's error, not numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VanishingDenominatorError, match="state/dual overlap .* is not finite"):
            symmetrized_verified_estimate(rho, rbar, PauliObservable.single("ZX"))
