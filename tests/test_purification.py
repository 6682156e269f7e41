import numpy as np
import pytest

from puremit.linalg import DensityOperator, pure_fidelity, random_density
from puremit.purification import (
    DegenerateSpectrumError,
    coherent_mismatch,
    decompose_noisy_state,
    purified_expectation,
    purified_infidelity_bound,
    purified_state,
)


def test_decompose_diagonal_example():
    dec = decompose_noisy_state(np.diag([0.85, 0.15]).astype(complex))
    assert dec.error_weight == pytest.approx(0.15, abs=1e-12)
    assert np.max(np.abs(dec.dominant.matrix - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(dec.residual.matrix - np.diag([0.0, 1.0]))) < 1e-12


def test_decompose_recomposes_and_is_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = random_density(rng, 4).matrix
        try:
            dec = decompose_noisy_state(rho)
        except DegenerateSpectrumError:
            continue
        p = dec.error_weight
        back = (1 - p) * dec.dominant.matrix + p * dec.residual.matrix
        assert np.max(np.abs(back - rho)) < 1e-9
        # residual lives in the orthogonal complement of the dominant vector
        overlap = np.trace(dec.dominant.matrix @ dec.residual.matrix)
        assert abs(overlap) < 1e-9


def test_decompose_pure_state():
    dec = decompose_noisy_state(DensityOperator.computational_zero(1))
    assert dec.error_weight == 0.0
    assert np.max(np.abs(dec.dominant.matrix - np.diag([1.0, 0.0]))) < 1e-12


def test_decompose_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        decompose_noisy_state(np.eye(2, dtype=complex) / 2)
    with pytest.raises(DegenerateSpectrumError):
        decompose_noisy_state(np.diag([0.5 + 1e-10, 0.5 - 1e-10]).astype(complex))


def test_purified_state_diagonal_values():
    got = purified_state(np.diag([0.85, 0.15]).astype(complex), 2)
    assert got.matrix[0, 0].real == pytest.approx(0.9697986577181208, abs=1e-12)
    assert got.matrix[1, 1].real == pytest.approx(0.0302013422818792, abs=1e-12)


def test_purified_state_matches_matrix_power():
    rng = np.random.default_rng(1)
    for order in (1, 2, 3, 5):
        rho = random_density(rng, 4).matrix
        got = purified_state(rho, order).matrix
        power = np.linalg.matrix_power(rho, order)
        want = power / np.trace(power).real
        assert np.max(np.abs(got - want)) < 1e-10


def test_purified_state_order_one_is_identity_map():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3).matrix
    assert np.max(np.abs(purified_state(rho, 1).matrix - rho)) < 1e-12
    with pytest.raises(ValueError):
        purified_state(rho, 0)


def test_purified_infidelity_bound_values():
    # p = 0.1, M = 2: 0.01 / (0.81 + 0.01)
    assert purified_infidelity_bound(0.1, 2) == pytest.approx(
        0.012195121951219513, abs=1e-15
    )
    assert purified_infidelity_bound(0.0, 3) == 0.0
    assert purified_infidelity_bound(0.3, 1) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        purified_infidelity_bound(1.0, 2)
    with pytest.raises(ValueError):
        purified_infidelity_bound(-0.1, 2)
    with pytest.raises(ValueError):
        purified_infidelity_bound(0.1, 0)


def test_purified_infidelity_bound_is_monotone():
    for p in (0.05, 0.2, 0.35):
        vals = [purified_infidelity_bound(p, m) for m in range(1, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_purified_expectation_degree_two_example():
    # rho = 0.8 |+><+| + 0.2 I/2, O = X: degree-2 value is 0.80 / 0.82
    plus = np.full((2, 2), 0.5)
    rho = 0.8 * plus + 0.2 * np.eye(2) / 2
    x = np.array([[0, 1], [1, 0]], dtype=float)
    got = purified_expectation(rho, x, 2)
    assert got == pytest.approx(0.975609756097561, abs=1e-12)
    assert purified_expectation(rho, x, 1) == pytest.approx(0.8, abs=1e-12)


def test_purified_expectation_matches_power_ratio():
    rng = np.random.default_rng(3)
    from puremit.linalg import random_hermitian

    for order in (1, 2, 4):
        rho = random_density(rng, 4).matrix
        obs = random_hermitian(rng, 4)
        power = np.linalg.matrix_power(rho, order)
        want = np.trace(obs @ power).real / np.trace(power).real
        assert purified_expectation(rho, obs, order) == pytest.approx(want, abs=1e-10)


def test_a_nan_observable_entry_is_refused():
    # a NaN entry makes every eigenbasis diagonal entry NaN, which the
    # Hermiticity check must not pass
    rho = np.diag([0.9, 0.1]).astype(complex)
    obs = np.array([[1.0, np.nan], [np.nan, -1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        purified_expectation(rho, obs, 2)


def test_coherent_mismatch():
    # dominant eigenvector |0>, reference |+>: mismatch is 1 - 1/2
    rho = np.diag([0.9, 0.1]).astype(complex)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert coherent_mismatch(rho, plus) == pytest.approx(0.5, abs=1e-12)
    assert coherent_mismatch(rho, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateSpectrumError):
        coherent_mismatch(np.eye(2) / 2, plus)
    # a NaN norm is not 1
    with pytest.raises(ValueError, match="norm"):
        coherent_mismatch(np.diag([0.7, 0.1, 0.1, 0.1]), [np.nan, 0, 0, 0])


def test_purification_approaches_dominant_eigenvector():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4).matrix
    dec = decompose_noisy_state(rho)
    fids = []
    for m in (1, 2, 4, 8):
        pur = purified_state(rho, m)
        fids.append(float(np.trace(dec.dominant.matrix @ pur.matrix).real))
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    assert fids[-1] > fids[0]
    # the infinite-degree limit is bounded by the split guarantee
    bound = purified_infidelity_bound(dec.error_weight, 8)
    assert 1.0 - fids[-1] <= bound + 1e-9
