"""Ancilla-assisted and non-destructive measurement protocols.

``hadamard_test`` reads off Re/Im Tr(S U rho) with one ancilla. The
product-measurement helpers reconstruct Tr(S G rho) for a self-inverse G
without any controlled gates: projecting onto the (I +/- G)/2 eigenspaces
recovers the anticommutator half, and conjugating by the rotations
exp(+/- i pi G / 4) recovers the commutator half.
"""

from __future__ import annotations

import numpy as np

from .circuits import HADAMARD, I2, PAULI_X, PAULI_Y
from .linalg import _check_unitary, as_matrix, check_dimension, zero_projector
from .observables import PauliObservable
from .schemes import _registers, checked_ratio

_INVOLUTION_ATOL = 1e-10


def _obs_matrix(observable) -> np.ndarray:
    if isinstance(observable, PauliObservable):
        return observable.matrix()
    return np.asarray(observable, dtype=complex)


def hadamard_test(unitary: np.ndarray, companion, state, part: str = "real") -> float:
    """One-ancilla estimate of Re or Im of Tr(S U rho).

    Builds the ancilla circuit explicitly: ancilla in |0>, Hadamard,
    controlled-U onto the register, then the X (real part) or Y
    (imaginary part) ancilla readout taken jointly with the companion
    observable S on the register.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    u = np.asarray(unitary, dtype=complex)
    rho = as_matrix(state)
    s = _obs_matrix(companion)
    d = rho.shape[0]
    if u.shape != (d, d) or s.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: state {rho.shape}, unitary {u.shape}, companion {s.shape}"
        )
    # the ancilla doubles the register: refuse a composite past the cap
    # before any matrix of its size exists
    check_dimension(2 * d)
    _check_unitary(u)
    p0 = zero_projector(2)
    composite = np.kron(p0, rho)
    h = np.kron(HADAMARD, np.eye(d, dtype=complex))
    composite = h @ composite @ h.conj().T
    ctrl = np.kron(p0, np.eye(d, dtype=complex)) + np.kron(I2 - p0, u)
    composite = ctrl @ composite @ ctrl.conj().T
    anc = PAULI_X if part == "real" else PAULI_Y
    val = complex(np.trace(np.kron(anc, s) @ composite))
    return float(val.real)


def involution_projectors(observable: PauliObservable):
    """Projectors onto the +1/-1 eigenspaces of a self-inverse observable.

    The observable must be a single Pauli string with coefficient +/-1 so
    that G^2 = I.
    """
    if not observable.is_single_string():
        raise ValueError("projective splitting needs a single Pauli string")
    g = observable.matrix()
    dev = float(np.max(np.abs(g @ g - np.eye(g.shape[0]))))
    if dev > _INVOLUTION_ATOL:
        raise ValueError(f"observable is not an involution: |G^2 - I| = {dev:.3e}")
    eye = np.eye(g.shape[0], dtype=complex)
    return (eye + g) / 2.0, (eye - g) / 2.0


def _signed_sandwich(companion, observable: PauliObservable, state, rotations: bool) -> float:
    """Re sum_l l Tr(S K_l rho K_l^dag) over l = +1, -1, with K_l the
    projectors P_l of G or, with ``rotations``, the rotations
    R_l = exp(i l pi G / 4) = (I + i l G)/sqrt(2)."""
    s = _obs_matrix(companion)
    rho = as_matrix(state)
    p_plus, p_minus = involution_projectors(observable)
    if s.shape != rho.shape or p_plus.shape != rho.shape:
        raise ValueError(
            f"dimension mismatch: companion {s.shape}, state {rho.shape}, "
            f"projectors {p_plus.shape}"
        )
    ops = (p_plus, p_minus)
    if rotations:
        g = p_plus - p_minus
        eye = np.eye(g.shape[0], dtype=complex)
        ops = ((eye + 1j * g) / np.sqrt(2.0), (eye - 1j * g) / np.sqrt(2.0))
    plus, minus = (np.trace(s @ k @ rho @ k.conj().T) for k in ops)
    return float(complex(plus - minus).real)


def symmetric_product_measure(companion, observable: PauliObservable, state) -> float:
    """Anticommutator half Tr((S G + G S) rho / 2) via projective outcomes.

    Measures G projectively, weights the post-measurement states by the
    outcome, and reads S: returns sum_l l * Tr(S P_l rho P_l), which for
    Hermitian S equals Re Tr(S G rho).
    """
    return _signed_sandwich(companion, observable, state, rotations=False)


def antisymmetric_product_measure(companion, observable: PauliObservable, state) -> float:
    """Commutator half via the rotations R_l = exp(i l pi G / 4) = (I + i l G)/sqrt(2).

    Returns the real number (1/2) sum_l l Tr(S R_l rho R_l^dag), which
    equals i Tr((S G - G S) rho / 2), i.e. -Im Tr(S G rho) for Hermitian S.
    """
    return 0.5 * _signed_sandwich(companion, observable, state, rotations=True)


def product_expectation(companion, observable: PauliObservable, state) -> complex:
    """Tr(S G rho) reassembled from the two measurement halves.

    The symmetric half is the real part and the antisymmetric half a
    satisfies i a = Tr((S G - G S) rho / 2), so Tr(S G rho) = sym - i a.
    """
    sym = symmetric_product_measure(companion, observable, state)
    anti = antisymmetric_product_measure(companion, observable, state)
    return complex(sym, -anti)


def symmetrized_verified_estimate(state, dual, observable: PauliObservable) -> float:
    """Verified expectation from projective measurements alone.

    The verified numerator enters as Re Tr(rho_bar O rho), which is
    exactly the symmetric half with companion rho_bar: no controlled-O
    and no rotation machinery is needed. Divides by the overlap
    Tr(rho_bar rho).
    """
    rho, rbar, _ = _registers(state, dual, observable, "state-verification", 1)
    num = symmetric_product_measure(rbar, observable, rho)
    den = complex(np.trace(rbar @ rho)).real
    return float(checked_ratio(num, den, "state/dual overlap"))
