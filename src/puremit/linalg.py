"""Dense complex linear algebra for small multi-qubit registers.

Everything in this package works on explicit density matrices, so the
helpers here are deliberately plain: validated Hermitian
eigendecompositions, Kronecker products, the one local tensor
contraction every gate is applied through (``contract``), the one
partial trace (``partial_trace``) and its embedding back, I_T (x) S
added in place (``_add_embedded``), and a thin ``DensityOperator``
wrapper that checks physicality once at construction and then hands
out a read-only array.

Conventions
-----------
* Composite indices are built with ``np.kron`` left-to-right, so the
  leftmost factor is the most significant. Register 0 (and qubit 0
  inside a register) always sits on the left.
* ``hermitian_eig`` returns eigenvalues in descending order with a
  deterministic phase fix, so repeated calls on the same matrix give the
  same basis.  Near ties (within 1e-10 * max(1, |w|)) are broken
  lexicographically.
* A register is also a tensor of size-2 axes in qubit order: ``[2] * n``
  for a vector, ``[2] * 2n`` (row bits, then column bits) for a matrix.
  An evolving register is the real ``[4] * n`` tensor of its Pauli
  coefficients, each axis ordered I, X, Y, Z (``channels._evolve``).
  ``contract`` returns a transposed view of either; the next reshape
  that needs row-major storage makes the copy.
* Every partial trace in the package is ``partial_trace``: one einsum
  over that tensor with each traced subsystem's column labelled as its
  row, so nothing is transposed. ``_add_embedded`` adds into the same
  diagonal view, so a reduced operator goes back in without I_T (x) S
  being formed. Both take a stack of operators along leading axes, so
  a pair of registers is reduced or embedded in one call.
* Dense simulation is capped at ``MAX_DIM = 2**13``; anything larger
  raises ``DimensionCapError`` before memory blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

MAX_QUBITS = 13
MAX_DIM = 2**MAX_QUBITS

HERMITICITY_ATOL = 1e-10
UNITARITY_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
_PHASE_FLOOR = 1e-12
_TIE_RTOL = 1e-10
# entries per block of the Hermiticity check (1 MB of complex)
_HERMITIAN_BLOCK = 2**16


class DimensionCapError(ValueError):
    """Raised when a requested dense dimension exceeds ``MAX_DIM``."""


def check_dimension(dim: int) -> int:
    """Validate a dense matrix dimension against the hard cap.

    Parameters
    ----------
    dim : int
        Proposed Hilbert-space dimension.

    Returns
    -------
    int
        The same dimension, for chaining.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise DimensionCapError(
            f"dense dimension {dim} exceeds the cap {MAX_DIM} (= 2**{MAX_QUBITS})"
        )
    return dim


def zero_projector(dim: int) -> np.ndarray:
    """|0><0| on a ``dim``-dimensional space, as a writable matrix."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0
    return mat


def contract(tensor: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """``op`` applied to the listed axes of a tensor whose axes all have one size.

    The listed axes are transposed to the front, in ``axes`` order, and
    the tensor is reshaped to (d^k, rest), d the shared axis size (2 for
    a matrix's bits, 4 for a Pauli tensor): one ``op @ x`` product. The
    result comes back as a view in the input's axis order, not copied
    back into row-major storage.
    """
    axes = [int(a) for a in axes]
    order = axes + [a for a in range(tensor.ndim) if a not in axes]
    x = tensor.transpose(order).reshape(op.shape[1], -1)
    # the inverse permutation, in Python: np.argsort would first convert the list
    back = sorted(range(len(order)), key=order.__getitem__)
    return (op @ x).reshape(tensor.shape).transpose(back)


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, leftmost most significant."""
    factors = list(factors)
    if not factors:
        return np.eye(1, dtype=complex)
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def kron_power(a: np.ndarray, m: int) -> np.ndarray:
    """``a`` tensored with itself ``m`` times (``m >= 1``)."""
    if m < 1:
        raise ValueError(f"kron power needs m >= 1, got {m}")
    return kron_all([a] * m)


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix with a deterministic basis.

    Parameters
    ----------
    a : ndarray
        Square matrix, Hermitian within ``HERMITICITY_ATOL``.

    Returns
    -------
    (w, v) : tuple of ndarray
        ``w`` descending real eigenvalues, ``v`` unitary with columns the
        matching eigenvectors.  Each column is phase-fixed so its first
        entry of magnitude above 1e-12 is real positive; columns whose
        eigenvalues lie within 1e-10 * max(1, |w|) of the first of their
        cluster are ordered lexicographically.

    Raises
    ------
    ValueError
        If ``a`` is not square or not Hermitian within ``HERMITICITY_ATOL``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_hermitian(a)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > _PHASE_FLOOR)
        if nz.size:
            pivot = col[nz[0]]
            v[:, j] = col * (pivot.conjugate() / abs(pivot))
    # stable order inside clusters of eigenvalues tied to within
    # _TIE_RTOL * max(1, |w|), which eigh may return in any order
    j = 0
    while j < len(w):
        k = j + 1
        while k < len(w) and w[j] - w[k] <= _TIE_RTOL * max(1.0, abs(w[j])):
            k += 1
        if k - j > 1:
            cols = sorted(
                range(j, k),
                key=lambda c: tuple(
                    x for e in v[:, c] for x in (round(e.real, 12), round(e.imag, 12))
                ),
            )
            v[:, j:k] = v[:, cols]
        j = k
    return w, v


def _trace_labels(n: int, keep) -> list:
    """einsum labels of a stack of operators on n subsystems: the stack's
    axes are the leading ellipsis, row i is label i and column i label
    n + i, except that a column not in ``keep`` shares its row's label,
    which reads that subsystem on its diagonal."""
    return [..., *range(n)] + [n + i if i in keep else i for i in range(n)]


def partial_trace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    One einsum over the ``dims + dims`` view of ``a`` in which each traced
    subsystem's column shares its row's label (``_trace_labels``), so no
    transposed copy is made; with nothing traced the result is a view of
    ``a``. Axes of ``a`` before its last two hold a stack of operators,
    each reduced alike.

    Parameters
    ----------
    a : ndarray
        Operator on the tensor product of subsystems with dimensions
        ``dims`` (leftmost factor most significant), or a stack of them.
    dims : sequence of int
        Subsystem dimensions; their product must match ``a``'s size.
    keep : iterable of int
        Indices of subsystems to retain, in original order.

    Returns
    -------
    ndarray
        Operator on the kept subsystems, stacked as ``a`` is.
    """
    a = np.asarray(a, dtype=complex)
    n = len(dims)
    keep = sorted(set(keep))
    if a.shape[-2:] != (prod(dims),) * 2 or keep and not 0 <= keep[0] <= keep[-1] < n:
        raise ValueError(f"operator shape {a.shape} or keep indices {keep} do not fit dims {dims}")
    kept = [..., *keep] + [n + i for i in keep]
    out = np.einsum(a.reshape((*a.shape[:-2], *dims, *dims)), _trace_labels(n, keep), kept)
    return out.reshape((*a.shape[:-2], prod([dims[i] for i in keep]), -1))


def _add_embedded(out: np.ndarray, s: np.ndarray, dims: list, keep) -> None:
    """Add I_T (x) S into ``out`` in place: S, an operator on the ``keep``
    subsystems (sorted), into every block of ``out`` diagonal in the rest,
    the traced set T. The blocks are a writable einsum view of ``out``,
    whose reshape only splits axes, so a transposed or strided ``out``
    is written too. Leading axes stack as in ``partial_trace``.
    """
    n = len(dims)
    # the traced axes lead, so S broadcasts over them
    axes = [i for i in range(n) if i not in keep] + [..., *keep] + [n + i for i in keep]
    diag = np.einsum(out.reshape((*out.shape[:-2], *dims, *dims)), _trace_labels(n, keep), axes)
    diag += s.reshape(diag.shape[n - len(keep) :])


def _check_hermitian(mat: np.ndarray) -> None:
    """Raise unless max |mat - mat^dag| <= HERMITICITY_ATOL; NaN fails.

    Read one block of columns at a time against the matching rows, in a
    buffer of about ``_HERMITIAN_BLOCK`` entries, so no register-size
    difference is formed and each block stays in cache. An infinite
    entry fails too: off the diagonal its difference is infinite, and on
    it inf - inf is NaN, taken without numpy's invalid-value warning.
    """
    step = max(1, _HERMITIAN_BLOCK // mat.shape[0])
    with np.errstate(invalid="ignore"):
        for i in range(0, mat.shape[0], step):
            block = mat[:, i : i + step].conj()
            np.subtract(block, mat[i : i + step].T, out=block)
            dev = float(np.max(np.abs(block)))
            if not dev <= HERMITICITY_ATOL:  # NaN fails too
                raise ValueError(f"matrix not Hermitian: max |a - a^dag| = {dev:.3e}")


def _check_unitary(u: np.ndarray) -> None:
    """Raise unless max |U^dag U - I| <= UNITARITY_ATOL; NaN fails."""
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not dev <= UNITARITY_ATOL:  # NaN fails too
        raise ValueError(f"matrix is not unitary: |U^dag U - I| = {dev:.3e}")


def _unit_vector(psi, name: str) -> np.ndarray:
    """``psi`` as a flat complex vector; raises unless its norm is 1."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"{name} norm {nrm!r} != 1")
    return psi


def _check_trace(mat: np.ndarray) -> None:
    tr = float(mat.trace().real)
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValueError(f"density matrix trace {tr!r} != 1")


@dataclass(frozen=True)
class DensityOperator:
    """A validated density matrix (optionally non-normalized).

    Attributes
    ----------
    matrix : ndarray
        Square complex matrix, Hermitian and positive semidefinite
        within tolerance.  Stored read-only.
    normalized : bool
        When True (default) the trace must be 1 within ``TRACE_ATOL``.
        Dual states are the one place this is False: they stay PSD but
        their trace is whatever the adjoint channel produces.
    """

    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        # the input is only read; the symmetrised matrix is a fresh array
        # and becomes the stored one
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        check_dimension(mat.shape[0])
        _check_hermitian(mat)
        mat = mat + mat.conj().T
        mat /= 2.0
        evals = np.linalg.eigvalsh(mat)
        if not evals[0] >= -PSD_ATOL:
            raise ValueError(f"density matrix not PSD: min eigenvalue {evals[0]:.3e}")
        if self.normalized:
            _check_trace(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, mat: np.ndarray, normalized: bool = True) -> "DensityOperator":
        """Wrap a matrix that is PSD by construction, such as an evolution result.

        Only the Hermiticity and (when ``normalized``) trace checks run: no
        eigenvalues, no copy. ``mat`` must be a complex square matrix that
        no one else writes to; it becomes the stored, read-only matrix.
        """
        _check_hermitian(mat)
        if normalized:
            _check_trace(mat)
        mat.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", mat)
        object.__setattr__(out, "normalized", normalized)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    @classmethod
    def pure(cls, psi: np.ndarray) -> "DensityOperator":
        """Rank-1 projector onto the unit vector ``psi``."""
        psi = _unit_vector(psi, "state vector")
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def computational_zero(cls, n_qubits: int) -> "DensityOperator":
        """|0...0><0...0| on ``n_qubits`` qubits."""
        return cls(zero_projector(check_dimension(2**n_qubits)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        check_dimension(dim)
        return cls(np.eye(dim, dtype=complex) / dim)


def as_matrix(state) -> np.ndarray:
    """Accept either a DensityOperator or a bare ndarray."""
    if isinstance(state, DensityOperator):
        return state.matrix
    return np.asarray(state, dtype=complex)


def pure_fidelity(psi: np.ndarray, state) -> float:
    """Fidelity <psi|rho|psi> of a state against a unit reference vector."""
    psi = _unit_vector(psi, "reference vector")
    mat = as_matrix(state)
    if mat.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: state {mat.shape[0]}, vector {psi.shape[0]}")
    val = np.vdot(psi, mat @ psi)
    return float(val.real)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state from a normalized Ginibre product."""
    if rank is None:
        rank = dim
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = z @ z.conj().T
    return DensityOperator(mat / mat.trace().real)
