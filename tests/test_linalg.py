import numpy as np
import pytest

from puremit.linalg import (
    DensityOperator,
    DimensionCapError,
    MAX_DIM,
    check_dimension,
    contract,
    hermitian_eig,
    kron_all,
    kron_power,
    partial_trace,
    pure_fidelity,
    random_density,
    random_hermitian,
    random_unitary,
)


def test_contract_applies_the_operator_to_the_listed_axes_as_a_view():
    rng = np.random.default_rng(5)
    tensor = rng.normal(size=[2] * 4) + 1j * rng.normal(size=[2] * 4)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = contract(tensor, op, [3, 1])
    # op.reshape(2, 2, 2, 2) is indexed (out 3, out 1, in 3, in 1)
    want = np.einsum("xyzw,awcz->aycx", op.reshape(2, 2, 2, 2), tensor)
    assert np.allclose(got, want)
    # the product is handed back in the input's axis order without a copy
    assert got.shape == tensor.shape and not got.flags.c_contiguous


def test_kron_all_block_structure():
    x = np.array([[0, 1], [1, 0]])
    eye = np.eye(2)
    got = kron_all([x, eye])
    want = np.block([[np.zeros((2, 2)), eye], [eye, np.zeros((2, 2))]])
    assert np.array_equal(got, want)
    assert np.array_equal(kron_all([]), np.eye(1))


def test_kron_power_matches_chain():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    want = np.kron(np.kron(a, a), a)
    assert np.allclose(kron_power(a, 3), want)
    with pytest.raises(ValueError):
        kron_power(a, 0)


def test_check_dimension_cap():
    assert check_dimension(MAX_DIM) == MAX_DIM
    with pytest.raises(DimensionCapError):
        check_dimension(MAX_DIM * 2)
    with pytest.raises(ValueError):
        check_dimension(0)


def test_hermitian_eig_reconstructs_and_orders():
    rng = np.random.default_rng(1)
    for d in (2, 3, 8):
        a = random_hermitian(rng, d)
        w, v = hermitian_eig(a)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_hermitian_eig_phase_is_deterministic():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 5)
    w1, v1 = hermitian_eig(a)
    w2, v2 = hermitian_eig(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)
    for j in range(5):
        col = v1[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_hermitian_eig_orders_near_ties_stably():
    # eigenvalues 1 and 1 + 1e-15 on e1 and e2, given in both assignments:
    # eigh orders the pair by rounding noise, the tie-sort by the vectors
    cols = []
    for tied in ((1.0, 1.0 + 1e-15), (1.0 + 1e-15, 1.0)):
        a = np.diag([1.0, *tied, 1.0]).astype(complex)
        a[0, 3] = a[3, 0] = 1.0
        w, v = hermitian_eig(a)
        assert np.allclose(w, [2.0, 1.0, 1.0, 0.0], atol=1e-12)
        cols.append(v)
    assert np.max(np.abs(cols[0] - cols[1])) <= 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _partial_trace_loops(a, dims, keep):
    """Index-loop reference implementation."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    shape = list(dims) + list(dims)
    t = a.reshape(shape)
    for idx in np.ndindex(*[dims[i] for i in keep]):
        for jdx in np.ndindex(*[dims[i] for i in keep]):
            total = 0.0 + 0.0j
            for tdx in np.ndindex(*[dims[i] for i in traced]):
                left = [0] * n
                right = [0] * n
                for pos, i in enumerate(keep):
                    left[i] = idx[pos]
                    right[i] = jdx[pos]
                for pos, i in enumerate(traced):
                    left[i] = tdx[pos]
                    right[i] = tdx[pos]
                total += t[tuple(left) + tuple(right)]
            fi = int(np.ravel_multi_index(idx, [dims[i] for i in keep])) if keep else 0
            fj = int(np.ravel_multi_index(jdx, [dims[i] for i in keep])) if keep else 0
            out[fi, fj] = total
    return out


def test_partial_trace_matches_loop_reference():
    rng = np.random.default_rng(3)
    dims = [2, 3, 2]
    total = int(np.prod(dims))
    a = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
        got = partial_trace(a, dims, keep)
        want = _partial_trace_loops(a, dims, keep)
        assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    for keep in ([0], [1]):
        red = partial_trace(rho, [2, 2], keep)
        assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-12


def test_partial_trace_factorizes_product_states():
    rng = np.random.default_rng(4)
    ra = random_density(rng, 2).matrix
    rb = random_density(rng, 4).matrix
    joint = np.kron(ra, rb)
    assert np.max(np.abs(partial_trace(joint, [2, 4], [0]) - ra)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, [2, 4], [1]) - rb)) < 1e-12


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.7, 0.7]))  # trace != 1
    DensityOperator(np.diag([0.7, 0.7]), normalized=False)  # allowed unnormalized


def test_validity_checks_reject_a_nan_matrix():
    # NaN passes any comparison written as x > tol
    bad = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        DensityOperator(bad)
    with pytest.raises(ValueError):
        DensityOperator(bad, normalized=False)
    for normalized in (True, False):
        with pytest.raises(ValueError):
            DensityOperator._trusted(bad.copy(), normalized=normalized)
    with pytest.raises(ValueError):
        hermitian_eig(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 2), (2, 2)], ids=["off-diagonal", "diagonal"])
def test_density_operators_hold_no_non_finite_entry(bad, entry):
    # both constructors run the Hermiticity check, which one NaN or
    # infinite entry fails, so the estimators need not scan a
    # DensityOperator for one
    mat = random_density(np.random.default_rng(5), 4).matrix.copy()
    mat[entry] = bad
    for normalized in (True, False):
        with pytest.raises(ValueError):
            DensityOperator(mat, normalized=normalized)
        with pytest.raises(ValueError):
            DensityOperator._trusted(mat.copy(), normalized=normalized)


def test_density_operator_is_read_only():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_density_operator_keeps_its_own_matrix():
    # the caller's array is only read; mutating it later changes nothing
    for dtype in (complex, float):
        arr = np.diag([0.25, 0.75]).astype(dtype)
        rho = DensityOperator(arr)
        assert not np.shares_memory(rho.matrix, arr)
        arr[0, 0] = 9.0
        arr[0, 1] = 3.0
        assert np.array_equal(rho.matrix, np.diag([0.25, 0.75]))
        assert rho.matrix.flags.c_contiguous


def test_density_operator_constructors():
    z = DensityOperator.computational_zero(2)
    assert z.dim == 4 and z.matrix[0, 0] == 1.0 and z.trace == 1.0
    m = DensityOperator.maximally_mixed(8)
    assert np.allclose(m.matrix, np.eye(8) / 8)
    plus = DensityOperator.pure(np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(plus.matrix, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        DensityOperator.pure(np.array([1.0, 1.0]))  # not normalized


def test_pure_fidelity():
    plus = np.array([1, 1]) / np.sqrt(2)
    zero = DensityOperator.computational_zero(1)
    assert abs(pure_fidelity(plus, zero) - 0.5) < 1e-12
    assert abs(pure_fidelity(np.array([1.0, 0.0]), zero) - 1.0) < 1e-12
    # a NaN norm is not 1
    for psi in ([np.nan, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="norm"):
            pure_fidelity(np.array(psi), zero)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 6)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10


def test_random_density_is_valid_state():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 5)
    assert abs(rho.trace - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
