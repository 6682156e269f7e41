"""Spectral purification of noisy states.

A noisy state splits as rho = (1 - p) rho_dom + p rho_res with rho_dom
the projector onto the top eigenvector and rho_res orthogonal to it.
Raising rho to the M-th power and renormalizing suppresses the residual
weight to p^M / ((1-p)^M + p^M); the helpers here compute the split, the
powered state, the suppressed-weight bound, and expectation values in the
powered state, all through one Hermitian eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator, _unit_vector, as_matrix, hermitian_eig
from .observables import PauliObservable

GAP_ATOL = 1e-8
_WEIGHT_FLOOR = 1e-12
_IMAG_ATOL = 1e-9


class DegenerateSpectrumError(ValueError):
    """Top eigenvalue is not separated; the dominant direction is ill-defined."""


@dataclass(frozen=True)
class NoisyDecomposition:
    """Spectral split rho = (1 - error_weight) dominant + error_weight residual."""

    dominant: DensityOperator
    residual: DensityOperator
    error_weight: float

    @property
    def dim(self) -> int:
        return self.dominant.dim


def _gapped_eig(rho: np.ndarray, gap_atol: float):
    """``hermitian_eig`` of rho; raises DegenerateSpectrumError when the
    top spectral gap is within ``gap_atol``."""
    w, v = hermitian_eig(rho)
    if rho.shape[0] > 1 and (w[0] - w[1]) <= gap_atol:
        raise DegenerateSpectrumError(
            f"top eigenvalue gap {w[0] - w[1]:.3e} is within tolerance {gap_atol:.1e}"
        )
    return w, v


def _powered_eig(rho: np.ndarray, order: int):
    """(v, w^M, Tr rho^M) from ``hermitian_eig`` of rho, the eigenvalues
    clipped at zero; raises when the power's trace vanishes."""
    w, v = hermitian_eig(rho)
    powered = np.clip(w, 0.0, None) ** order
    total = float(powered.sum())
    if total <= 1e-300:
        raise ValueError("state power has vanishing trace; cannot normalize")
    return v, powered, total


def decompose_noisy_state(state, gap_atol: float = GAP_ATOL) -> NoisyDecomposition:
    """Split a state into its dominant eigenprojector and the residual.

    Raises DegenerateSpectrumError when the top spectral gap is within
    ``gap_atol``, since the decomposition is then meaningless.
    """
    rho = as_matrix(state)
    w, v = _gapped_eig(rho, gap_atol)
    d = rho.shape[0]
    top = v[:, 0]
    dominant = np.outer(top, top.conj())
    p = max(0.0, 1.0 - float(w[0]))
    if p <= _WEIGHT_FLOOR:
        # pure input: the residual carries zero weight, so any state
        # orthogonal to the dominant direction will do
        residual = (
            np.outer(v[:, -1], v[:, -1].conj()) if d > 1 else dominant.copy()
        )
        return NoisyDecomposition(
            DensityOperator(dominant), DensityOperator(residual), 0.0
        )
    # DensityOperator stores the symmetrised matrix
    residual = (rho - float(w[0]) * dominant) / p
    return NoisyDecomposition(
        DensityOperator(dominant), DensityOperator(residual), p
    )


def purified_state(state, order: int) -> DensityOperator:
    """rho^M / Tr(rho^M) through eigenvalue powering."""
    if order < 1:
        raise ValueError(f"purification order must be >= 1, got {order}")
    v, powered, total = _powered_eig(as_matrix(state), order)
    return DensityOperator((v * (powered / total)) @ v.conj().T)


def purified_infidelity_bound(error_weight: float, order: int) -> float:
    """Worst-case residual weight after degree-M purification.

    p^M / ((1-p)^M + p^M), the fidelity complement guaranteed by the
    orthogonal split.
    """
    p = float(error_weight)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"error weight {p!r} outside [0, 1)")
    if order < 1:
        raise ValueError(f"purification order must be >= 1, got {order}")
    top = p**order
    return top / ((1.0 - p) ** order + top)


def purified_expectation(state, observable, order: int) -> float:
    """Tr(O rho^M) / Tr(rho^M) without forming the matrix power.

    ``observable`` may be a PauliObservable or a Hermitian matrix.
    """
    if order < 1:
        raise ValueError(f"purification order must be >= 1, got {order}")
    rho = as_matrix(state)
    obs = observable.matrix() if isinstance(observable, PauliObservable) else np.asarray(
        observable, dtype=complex
    )
    if obs.shape != rho.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, observable {obs.shape}")
    v, powered, total = _powered_eig(rho, order)
    diag = np.einsum("ij,jk,ki->i", v.conj().T, obs, v)
    if not float(np.max(np.abs(diag.imag))) <= _IMAG_ATOL:
        raise ValueError("observable is not Hermitian in the state eigenbasis")
    return float((powered @ diag.real) / total)


def coherent_mismatch(state, reference: np.ndarray) -> float:
    """1 - |<psi_ref|v_top>|^2: how far the dominant eigenvector drifted.

    This is the error floor purification cannot remove, since powering
    rho only reweights its own eigenvectors.
    """
    ref = _unit_vector(reference, "reference vector")
    _, v = _gapped_eig(as_matrix(state), GAP_ATOL)
    overlap = abs(np.vdot(ref, v[:, 0])) ** 2
    return float(max(0.0, 1.0 - overlap))
