from functools import reduce
from itertools import product

import numpy as np
import pytest

from puremit.observables import (
    ObservableFormatError,
    PauliObservable,
    format_observable,
    parse_observable,
    pauli_permutation,
    pauli_sandwiches,
    pauli_string_matrix,
    pauli_traces,
)


def test_pauli_string_matrix_entries():
    z = pauli_string_matrix("Z")
    assert np.array_equal(z, np.diag([1, -1]).astype(complex))
    zz = pauli_string_matrix("ZZ")
    assert np.array_equal(np.diag(zz).real, [1, -1, -1, 1])
    xi = pauli_string_matrix("XI")
    # X on qubit 0 (most significant) swaps the two 2x2 blocks
    assert np.array_equal(xi, np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))


def test_single_and_matrix():
    obs = PauliObservable.single("XY", -2.0)
    want = -2.0 * np.kron(
        np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    )
    assert np.max(np.abs(obs.matrix() - want)) < 1e-12
    assert obs.n_qubits == 2 and obs.dim == 4 and obs.is_single_string()


def test_observable_validation():
    with pytest.raises(ValueError):
        PauliObservable(())
    with pytest.raises(ValueError):
        PauliObservable(((1.0, "XQ"),))
    with pytest.raises(ValueError):
        PauliObservable(((1.0, "X"), (1.0, "XX")))
    with pytest.raises(ValueError):
        PauliObservable(((float("nan"), "X"),))


def test_pauli_observable_names_a_bad_string():
    # the parser leaves the letter check to the observable, whose message it passes on
    with pytest.raises(ValueError, match=r"^bad Pauli string 'XB' \(letters must be I/X/Y/Z\)$"):
        PauliObservable(((1.0, "XB"),))


@pytest.mark.parametrize(
    "text,terms",
    [
        ("Z", ((1.0, "Z"),)),
        ("-Z", ((-1.0, "Z"),)),
        ("xy", ((1.0, "XY"),)),
        ("0.5*zx", ((0.5, "ZX"),)),
        ("0.5*XX + 0.5*YY", ((0.5, "XX"), (0.5, "YY"))),
        ("ZZ - 2*XI", ((1.0, "ZZ"), (-2.0, "XI"))),
        ("1e-2*Z", ((0.01, "Z"),)),
        ("2.5e+1*Z - 1E-1*X", ((25.0, "Z"), (-0.1, "X"))),
        ("Z + I", ((1.0, "Z"), (1.0, "I"))),
        ("−Z", ((-1.0, "Z"),)),  # unicode minus
    ],
)
def test_parse_observable_grammar(text, terms):
    obs = parse_observable(text)
    assert obs.terms == terms


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty observable"),
        ("   ", "empty observable"),
        ("Z +", "dangling sign"),
        ("Z Z", "expected '+' or '-'"),
        ("q*Z", "bad coefficient"),
        ("2*", "bad Pauli string"),
        ("2*XB", "bad Pauli string"),
        ("X + YY", "share a width"),
    ],
)
def test_parse_observable_diagnostics(text, fragment):
    with pytest.raises(ObservableFormatError) as err:
        parse_observable(text)
    assert fragment in str(err.value)


def test_format_round_trips():
    for text in ("Z", "-Z", "0.5*XX + 0.5*YY", "ZZ - 2.0*XI", "3.25*Z + I"):
        obs = parse_observable(text)
        assert parse_observable(format_observable(obs)) == obs


def test_format_omits_unit_coefficients():
    assert format_observable(parse_observable("Z - X")) == "Z - X"
    assert format_observable(parse_observable("-1.5*Z")) == "-1.5*Z"


def test_expectation_matches_the_dense_trace():
    # non-Hermitian complex matrices, every letter, Y strings included
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        d = 2**n
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        strings = ["".join(s) for s in product("IXYZ", repeat=n)] if n <= 2 else [
            "".join(rng.choice(list("IXYZ"), size=n)) for _ in range(12)
        ] + ["Y" * n, "X" * n, "I" * n]
        for s in strings:
            got = PauliObservable.single(s, -1.5).expectation(x)
            want = -1.5 * np.trace(pauli_string_matrix(s) @ x)
            assert abs(got - want) <= 1e-12, s
        obs = PauliObservable(tuple((0.5 - 0.25 * i, s) for i, s in enumerate(strings[:4])))
        assert abs(obs.expectation(x) - np.trace(obs.matrix() @ x)) <= 1e-12


def test_expectation_rejects_a_mismatched_matrix():
    with pytest.raises(ValueError):
        PauliObservable.single("ZZ").expectation(np.eye(2))


def test_pauli_permutation_is_the_dense_string():
    # P|j> = phase[j] |perm[j]> is the dense string, and the readers built
    # on it equal the dense traces: Tr(P a), Tr(P a b) for square and for
    # rectangular (column times row) factors, and Tr(v P x P^dag)
    rng = np.random.default_rng(3)
    strings = ["Y", "YY", "XYZ", "IZY", "YIXZ"]
    strings += ["".join(rng.choice(list("IXYZ"), size=k)) for k in (1, 2, 3, 4) for _ in range(3)]
    for string in strings:
        perm, phase = pauli_permutation(string)
        dim = 2 ** len(string)
        dense = pauli_string_matrix(string)
        got = np.zeros((dim, dim), dtype=complex)
        got[perm, np.arange(dim)] = phase
        assert np.max(np.abs(got - dense)) <= 1e-12, string
        a, b, v = (rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim)))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        perms = [(perm, phase)] * 2
        for reads, want in (
            (pauli_traces(perms, a), np.trace(dense @ a)),
            (pauli_traces(perms, a, b), np.trace(dense @ a @ b)),
            (pauli_traces(perms, a, b.T), np.trace(dense @ a @ b.T)),
            (pauli_traces(perms, psi[:, None], psi.conj()[None]), psi.conj() @ dense @ psi),
            (pauli_sandwiches(perms, v, a), np.trace(v @ dense @ a @ dense.conj().T)),
        ):
            assert np.max(np.abs(reads - want)) <= 1e-12, string


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_permutation_phases_are_exact(n):
    # every phase is 1, -1, i or -i, so the signed permutation equals the
    # dense string entry for entry, for every string of the width
    dim = 2**n
    for letters in product("IXYZ", repeat=n):
        string = "".join(letters)
        perm, phase = pauli_permutation(string)
        assert np.issubdtype(perm.dtype, np.integer), string
        assert phase.dtype == complex and phase.shape == (dim,), string
        assert np.array_equal(pauli_string_matrix(string)[perm, np.arange(dim)], phase), string
        assert np.array_equal(np.sort(perm), np.arange(dim)), string


# the phase a Pauli letter puts on |b>: Y|b> = i (-1)^b |1-b>, Z|b> = (-1)^b |b>
_LETTER_PHASES = {
    "I": np.ones(2), "X": np.ones(2), "Y": np.array([1j, -1j]), "Z": np.array([1.0, -1.0]),
}


@pytest.mark.parametrize("n", [6, 9, 13])
def test_pauli_permutation_closed_form_matches_the_letters_to_the_cap(n):
    # the flip mask, the parity table and i^#Y against the string built
    # letter by letter: perm flips each X and Y bit, and phase is one outer
    # product of the letters' phases, qubit 0 the slowest axis
    rng = np.random.default_rng([17, n])
    strings = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
    for string in strings + ["Y" * n, "Z" * n, "I" * n]:
        perm, phase = pauli_permutation(string)
        # bit i of j, qubit i, sits at place n - 1 - i
        places = np.arange(n - 1, -1, -1)
        bits = (np.arange(2**n)[:, None] >> places) & 1
        flips = np.array([letter in "XY" for letter in string], dtype=int)
        want_perm = ((bits ^ flips) << places).sum(axis=1)
        want_phase = reduce(
            np.multiply.outer, [_LETTER_PHASES[letter] for letter in string], np.ones((), complex)
        ).reshape(-1)
        assert np.issubdtype(perm.dtype, np.integer) and phase.dtype == complex, string
        assert np.array_equal(perm, want_perm), string
        assert np.array_equal(phase, want_phase), string
