"""Pauli-sum observables and their text form.

The text grammar is a signed sum of weighted Pauli strings, e.g.
``0.5*ZI + 0.5*IZ`` or ``-0.25*XX + ZZ``. Coefficients are real; a bare
string means coefficient 1. All strings in a sum must share a width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import I2, PAULI_X, PAULI_Y, PAULI_Z
from .linalg import MAX_QUBITS, check_dimension, kron_all

_PAULI = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
# (-1)^parity(j) for every j under the dense cap, 8 KB, built once here
# by doubling: the upper half of each step is the lower half negated
_PARITY_SIGN = np.ones(1, dtype=np.int8)
for _ in range(MAX_QUBITS):
    _PARITY_SIGN = np.concatenate([_PARITY_SIGN, -_PARITY_SIGN])
_PARITY_SIGN.setflags(write=False)
# i^k for the number k of Y letters, mod 4
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class ObservableFormatError(ValueError):
    """Malformed observable text; message points at the offending token."""


@dataclass(frozen=True)
class PauliObservable:
    """Real-weighted sum of Pauli strings on one register.

    terms: tuple of (coefficient, string) pairs, strings over IXYZ with a
    common width. Qubit 0 is the leftmost letter (most significant).
    ``expectation`` reads Tr(O X) with each string as a signed
    permutation (``pauli_traces``), O(2^n) per string; ``matrix`` builds
    the dense 2^n x 2^n sum, which the estimators and pipelines do not
    need.
    """

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("observable needs at least one term")
        terms = tuple((float(c), str(s).upper()) for c, s in self.terms)
        object.__setattr__(self, "terms", terms)
        width = len(terms[0][1])
        for c, s in terms:
            if len(s) != width:
                raise ValueError(
                    f"Pauli strings must share a width: {s!r} vs width {width}"
                )
            if not s or any(ch not in _PAULI for ch in s):
                raise ValueError(f"bad Pauli string {s!r} (letters must be I/X/Y/Z)")
            if not np.isfinite(c):
                raise ValueError(f"coefficient {c!r} is not finite")
        check_dimension(2**width)

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0][1])

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, s in self.terms:
            out += c * pauli_string_matrix(s)
        return out

    def expectation(self, mat) -> complex:
        """Tr(O X) = sum_s c_s Tr(P_s X) for any square matrix X of the register."""
        mat = np.asarray(mat)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"dimension mismatch: matrix {mat.shape}, observable {(self.dim, self.dim)}"
            )
        perms = [pauli_permutation(s) for _, s in self.terms]
        return complex(self.coefficients @ pauli_traces(perms, mat))

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms])

    def permutations(self) -> list:
        """Each term's string as a signed permutation, then the all-I
        string, whose trace is a ratio's denominator."""
        strings = [s for _, s in self.terms] + ["I" * self.n_qubits]
        return [pauli_permutation(s) for s in strings]

    def is_single_string(self) -> bool:
        return len(self.terms) == 1

    @classmethod
    def single(cls, string: str, coefficient: float = 1.0) -> "PauliObservable":
        return cls(((coefficient, string),))


def pauli_string_matrix(s: str) -> np.ndarray:
    return kron_all(_PAULI[ch] for ch in s.upper())


def pauli_permutation(string: str):
    """The Pauli string P as a signed permutation of the basis.

    Qubit 0 is the leftmost letter (most significant). Returns (perm,
    phase) with P|j> = phase[j] |perm[j]>; perm flips the X and Y qubits,
    so it is its own inverse. Applying P this way costs O(2^n) per
    vector instead of a dense 2^n x 2^n product.

    Y|b> = i (-1)^b |1-b> and Z|b> = (-1)^b |b>, so one pass over the
    letters gives the flip mask (X, Y), the sign mask (Y, Z) and the Y
    count, and phase[j] = i^#Y (-1)^parity(j & signs), the parity read
    from a constant table. Every phase is 1, -1, i or -i, so it is exact.
    """
    flips = signs = n_y = 0
    for letter in string.upper():
        flips = flips << 1 | (letter in "XY")
        signs = signs << 1 | (letter in "YZ")
        n_y += letter == "Y"
    index = np.arange(2 ** len(string))
    # complex128 named, since numpy 1.x would type int8 times a complex scalar complex64
    phase = np.multiply(_PARITY_SIGN[index & signs], _I_POWERS[n_y % 4], dtype=complex)
    return index ^ flips, phase


def pauli_traces(perms, a, b=None) -> np.ndarray:
    """Tr(P a), or Tr(P a b) without forming a b, for each (perm, phase)
    of ``perms`` (``pauli_permutation``).

    Tr(P a) is sum_j phase[j] a[j, perm[j]], one entry of a per row.
    Tr(P a b) is sum_j phase[j] (row j of a) . (column perm[j] of b): the
    rows of b^T gathered by perm into one buffer and read against a,
    O(rows(a) cols(a)) per string. a and b may be rectangular, e.g. psi
    as a column and its conjugate as a row. b^T is copied row-major once
    per call, unless b is the transpose of a row-major array (c.T), which
    a caller reading one matrix several times can keep.
    """
    if b is None:
        rows = np.arange(a.shape[0])
        return np.array([phase @ a[rows, perm] for perm, phase in perms], dtype=complex)
    a_flat = np.ravel(a)
    b_t = np.ascontiguousarray(np.transpose(b), dtype=complex)
    rows = np.empty_like(b_t)
    out = np.empty(len(perms), dtype=complex)
    for i, (perm, phase) in enumerate(perms):
        # mode="clip" spares the checked copy that "raise" makes with out
        b_t.take(perm, axis=0, out=rows, mode="clip")
        rows *= phase[:, None]
        out[i] = np.dot(a_flat, rows.ravel())
    return out


def pauli_sandwiches(perms, v, x) -> np.ndarray:
    """Tr(v P x P^dag) for each (perm, phase) of ``perms``, square v and x.

    (P x P^dag)[perm[j], perm[l]] = phase[j] x[j, l] conj(phase[l]), so the
    trace reads v^T gathered by perm on both sides against x, O(d^2) per
    string. As in ``pauli_traces``, v = c.T of a row-major c is not copied.
    """
    x_flat = np.ravel(x)
    v_t = np.ascontiguousarray(np.transpose(v), dtype=complex)
    rows, both = np.empty_like(v_t), np.empty_like(v_t)
    out = np.empty(len(perms), dtype=complex)
    for i, (perm, phase) in enumerate(perms):
        v_t.take(perm, axis=0, out=rows, mode="clip")
        rows.take(perm, axis=1, out=both, mode="clip")
        both *= phase[:, None]
        both *= phase.conj()
        out[i] = np.dot(x_flat, both.ravel())
    return out


def parse_observable(text: str) -> PauliObservable:
    """Parse observable text into a PauliObservable.

    The parser reads the signs, coefficients and term boundaries, and
    raises ObservableFormatError naming the offending token. The values
    are ``PauliObservable``'s to check (the letters I/X/Y/Z in either
    case, a common width, finite coefficients); its errors are raised
    here as ObservableFormatError too.
    """
    src = text.replace("−", "-").strip()
    if not src:
        raise ObservableFormatError("empty observable text")
    terms = []
    pos = 0
    n = len(src)
    first = True
    while pos < n:
        while pos < n and src[pos].isspace():
            pos += 1
        if pos >= n:
            break
        sign = 1.0
        if src[pos] in "+-":
            sign = -1.0 if src[pos] == "-" else 1.0
            pos += 1
            while pos < n and src[pos].isspace():
                pos += 1
        elif not first:
            raise ObservableFormatError(
                f"expected '+' or '-' before term at {src[pos:pos + 12]!r}"
            )
        start = pos
        while pos < n and not src[pos].isspace() and src[pos] not in "+-":
            pos += 1
        # scientific exponent signs belong to the token
        while pos < n and src[pos] in "+-" and pos > start and src[pos - 1] in "eE":
            pos += 1
            while pos < n and not src[pos].isspace() and src[pos] not in "+-":
                pos += 1
        token = src[start:pos]
        if not token:
            raise ObservableFormatError(f"dangling sign at position {start} in {text!r}")
        if "*" in token:
            coeff_text, _, string = token.partition("*")
            try:
                coeff = float(coeff_text)
            except ValueError:
                raise ObservableFormatError(
                    f"bad coefficient {coeff_text!r} in term {token!r}"
                ) from None
        else:
            coeff, string = 1.0, token
        terms.append((sign * coeff, string))
        first = False
    if not terms:
        raise ObservableFormatError(f"no terms found in {text!r}")
    try:
        return PauliObservable(tuple(terms))
    except ValueError as exc:
        raise ObservableFormatError(str(exc)) from None


def format_observable(obs: PauliObservable) -> str:
    """Canonical text form; parse(format(x)) == x."""
    parts = []
    for i, (c, s) in enumerate(obs.terms):
        mag = abs(c)
        body = s if mag == 1.0 else f"{mag!r}*{s}"
        if i == 0:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c >= 0 else '-'} {body}")
    return " ".join(parts)
