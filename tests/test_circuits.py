import numpy as np
import pytest

from puremit.circuits import (
    ANGLE_GATES,
    CNOT,
    CircuitFormatError,
    GATE_ARITY,
    Gate,
    GateCircuit,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    SWAP_GATE,
    T_GATE,
    circuit_state,
    circuit_unitary,
    embed_operator,
    format_circuit,
    gate_matrix,
    inverse_circuit,
    parse_circuit,
    random_circuit,
    rx,
    ry,
    rz,
)
from puremit.linalg import random_density


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(0)
    mats = [PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, S_GATE, T_GATE, CNOT, SWAP_GATE]
    mats += [rx(1.3), ry(-0.4), rz(2.2)]
    for m in mats:
        d = m.shape[0]
        assert np.max(np.abs(m.conj().T @ m - np.eye(d))) < 1e-12
    del rng


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    assert np.allclose(HADAMARD @ PAULI_Z @ HADAMARD, PAULI_X)
    assert np.allclose(S_GATE @ S_GATE, PAULI_Z)
    assert np.allclose(T_GATE @ T_GATE, S_GATE)


def test_rotations_exponentiate_paulis():
    theta = 0.77
    for gate, pauli in ((rx, PAULI_X), (ry, PAULI_Y), (rz, PAULI_Z)):
        want = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli
        assert np.max(np.abs(gate(theta) - want)) < 1e-12


def test_gate_matrix_angle_rules():
    with pytest.raises(ValueError):
        gate_matrix("RX")
    with pytest.raises(ValueError):
        gate_matrix("H", angle=0.5)
    with pytest.raises(ValueError):
        gate_matrix("Q7")


def test_embed_operator_basis_action():
    # X on qubit 1 of 3 flips the middle bit: |b0 b1 b2> -> |b0 (1-b1) b2>
    u = embed_operator(PAULI_X, [1], 3)
    for idx in range(8):
        out = np.flatnonzero(u[:, idx])
        assert out.tolist() == [idx ^ 0b010]


def test_embed_operator_matches_kron_orderings():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op = np.kron(a, b)
    # targets in register order: plain kron with identity
    assert np.allclose(embed_operator(op, [0, 1], 3), np.kron(op, np.eye(2)))
    assert np.allclose(embed_operator(op, [1, 2], 3), np.kron(np.eye(2), op))
    # reversed targets swap the tensor factors
    assert np.allclose(embed_operator(op, [2, 1], 3), np.kron(np.eye(2), np.kron(b, a)))


def test_embed_operator_cnot_matches_direct():
    # CNOT control 2, target 0 on three qubits, against an index-built matrix
    u = embed_operator(CNOT, [2, 0], 3)
    want = np.zeros((8, 8))
    for idx in range(8):
        b0, b1, b2 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        if b2 == 1:
            b0 ^= 1
        want[(b0 << 2) | (b1 << 1) | b2, idx] = 1.0
    assert np.max(np.abs(u - want)) < 1e-12


def test_embed_operator_rejects_bad_targets():
    with pytest.raises(ValueError):
        embed_operator(CNOT, [0, 0], 2)
    with pytest.raises(ValueError):
        embed_operator(CNOT, [0, 2], 2)
    with pytest.raises(ValueError):
        embed_operator(PAULI_X, [0, 1], 2)


def test_circuit_unitary_bell():
    circ = GateCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    psi = circuit_unitary(circ)[:, 0]
    want = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.max(np.abs(psi - want)) < 1e-12


def test_inverse_circuit_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        circ = random_circuit(rng, 2, 8)
        u = circuit_unitary(circ)
        v = circuit_unitary(inverse_circuit(circ))
        # equal up to a global phase (S/T invert through RZ)
        prod = v @ u
        phase = prod[0, 0] / abs(prod[0, 0])
        assert np.max(np.abs(prod - phase * np.eye(4))) < 1e-10


def test_inverse_circuit_reverses_state_prep():
    rng = np.random.default_rng(3)
    circ = random_circuit(rng, 2, 6)
    u = circuit_unitary(circ)
    v = circuit_unitary(inverse_circuit(circ))
    rho = random_density(rng, 4).matrix
    back = v @ (u @ rho @ u.conj().T) @ v.conj().T
    assert np.max(np.abs(back - rho)) < 1e-10


def test_parse_format_round_trip():
    text = "qubits 2\nH 0\nRZ 0.5 1\nCNOT 0 1\nT 1\n"
    circ = parse_circuit(text)
    assert circ.n_qubits == 2
    assert [g.name for g in circ.gates] == ["H", "RZ", "CNOT", "T"]
    again = parse_circuit(format_circuit(circ))
    assert again == circ


def test_parse_circuit_accepts_comments_and_case():
    circ = parse_circuit("# prep\nqubits 1\n\nh 0  # mix\n")
    assert circ.gates[0].name == "H"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("H 0\n", "expected 'qubits N' header"),
        ("qubits x\n", "not an integer"),
        ("qubits 0\n", "must be >= 1"),
        ("qubits 1\nFOO 0\n", "unknown gate"),
        ("qubits 1\nRX 0\n", "expects 1 target"),
        ("qubits 1\nRX abc 0\n", "not a number"),
        ("qubits 1\nH 0 1\n", "expects 1 target(s)"),
        ("qubits 1\nH q\n", "must be integers"),
        ("qubits 1\nH 1\n", "out of range"),
        ("qubits 2\nSWAP 1 1\n", "must be distinct"),
        ("", "missing 'qubits N' header"),
    ],
)
def test_parse_circuit_diagnostics(text, fragment):
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text, source="bad.circ")
    assert fragment in str(err.value)
    assert "bad.circ" in str(err.value)


def test_parse_circuit_reports_line_numbers():
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit("qubits 1\nH 0\nFOO 0\n", source="f.circ")
    assert str(err.value).startswith("f.circ:3:")


def test_random_circuit_respects_bounds():
    rng = np.random.default_rng(4)
    circ = random_circuit(rng, 3, 20)
    assert circ.n_qubits == 3 and len(circ.gates) == 20
    for g in circ.gates:
        assert all(0 <= q < 3 for q in g.qubits)


def test_circuit_state_matches_the_unitary_column():
    rng = np.random.default_rng(4)
    n = 4
    gates = []
    for name, arity in sorted(GATE_ARITY.items()):
        for _ in range(3):
            targets = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
            angle = float(rng.uniform(-np.pi, np.pi)) if name in ANGLE_GATES else None
            gates.append(Gate(name, targets, angle))
    order = rng.permutation(len(gates))
    shuffled = GateCircuit(n, tuple(gates[i] for i in order))
    for circ in (shuffled, random_circuit(rng, 5, 40), GateCircuit(2)):
        want = circuit_unitary(circ)[:, 0]
        assert np.max(np.abs(circuit_state(circ) - want)) < 1e-12
