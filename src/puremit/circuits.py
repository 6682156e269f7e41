"""Gate-level circuits on one qubit register.

Qubit 0 is the most significant tensor factor. Supported gates: X, Y, Z,
H, S, T, RX, RY, RZ (angle in radians), CNOT, CZ, SWAP. Circuits are
stored as flat gate lists; unitaries are materialized on demand.

Circuit files are plain text: a ``qubits N`` header, then one gate per
line as ``NAME [angle] target [target]``, with ``#`` comments and blank
lines ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_dimension, contract

_SQ2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP_GATE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]).astype(complex)


GATE_ARITY = {
    "X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "T": 1,
    "RX": 1, "RY": 1, "RZ": 1,
    "CNOT": 2, "CZ": 2, "SWAP": 2,
}
ANGLE_GATES = frozenset({"RX", "RY", "RZ"})
_FIXED = {
    "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD,
    "S": S_GATE, "T": T_GATE, "CNOT": CNOT, "CZ": CZ, "SWAP": SWAP_GATE,
}
_ROTATIONS = {"RX": rx, "RY": ry, "RZ": rz}
# gates equal to their own inverse
_SELF_INVERSE = frozenset({"X", "Y", "Z", "H", "CNOT", "CZ", "SWAP"})
# the RZ angle each phase gate inverts to
_PHASE_INVERSE_ANGLES = {"S": -np.pi / 2, "T": -np.pi / 4}


class CircuitFormatError(ValueError):
    """Malformed circuit text; message carries the offending line number."""


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    if name not in GATE_ARITY:
        raise ValueError(f"unknown gate {name!r}")
    if name in ANGLE_GATES:
        if angle is None:
            raise ValueError(f"gate {name} requires an angle")
        return _ROTATIONS[name](float(angle))
    if angle is not None:
        raise ValueError(f"gate {name} takes no angle")
    return _FIXED[name].copy()


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != GATE_ARITY[self.name]:
            raise ValueError(
                f"gate {self.name} expects {GATE_ARITY[self.name]} target(s), got {qubits}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {self.name} targets must be distinct, got {qubits}")
        if (self.angle is not None) != (self.name in ANGLE_GATES):
            raise ValueError(f"angle mismatch for gate {self.name}")
        if self.angle is not None and not np.isfinite(self.angle):
            raise ValueError(f"gate {self.name} angle {float(self.angle)} is not finite")

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.name, self.angle)


@dataclass(frozen=True)
class GateCircuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        check_dimension(2**self.n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(
                    f"gate {g.name} targets {g.qubits} out of range for {self.n_qubits} qubits"
                )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def embed_operator(op: np.ndarray, targets, n_qubits: int) -> np.ndarray:
    """Embed a k-qubit operator acting on ``targets`` into an n-qubit register.

    ``targets`` lists the qubits the operator's own factors act on, most
    significant first. Works for any square operator, not just unitaries:
    the operator is contracted into the row axes of the identity.
    """
    op = np.asarray(op, dtype=complex)
    targets = [int(t) for t in targets]
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise ValueError(f"targets {targets} out of range for {n_qubits} qubits")
    dim = check_dimension(2**n_qubits)
    eye = np.eye(dim, dtype=complex).reshape([2] * (2 * n_qubits))
    return contract(eye, op, targets).reshape(dim, dim)


def circuit_unitary(circ: GateCircuit) -> np.ndarray:
    """Full-register unitary: the gates, left to right, on the identity's row axes."""
    u = np.eye(circ.dim, dtype=complex).reshape([2] * (2 * circ.n_qubits))
    for g in circ.gates:
        u = contract(u, g.matrix(), g.qubits)
    return u.reshape(circ.dim, circ.dim)


def circuit_state(circ: GateCircuit) -> np.ndarray:
    """Output state vector of the circuit on |0...0>, one 2^k x 2^k product per gate.

    The vector is carried as its ``[2] * n`` tensor and each gate is
    applied to its target axes (``linalg.contract``), so it is never
    multiplied by a register-wide matrix. Equals
    ``circuit_unitary(circ)[:, 0]``.
    """
    psi = np.zeros(circ.dim, dtype=complex)
    psi[0] = 1.0
    psi = psi.reshape([2] * circ.n_qubits)
    for g in circ.gates:
        psi = contract(psi, g.matrix(), g.qubits)
    return psi.reshape(-1)



def inverse_circuit(circ: GateCircuit) -> GateCircuit:
    """Gate-by-gate inverse in reversed order.

    S and T invert to RZ rotations of -pi/2 and -pi/4; the leftover global
    phase is invisible at the channel level.
    """
    inv = []
    for g in reversed(circ.gates):
        if g.name in _SELF_INVERSE:
            inv.append(g)
        elif g.name in ANGLE_GATES:
            inv.append(Gate(g.name, g.qubits, -g.angle))
        else:
            inv.append(Gate("RZ", g.qubits, _PHASE_INVERSE_ANGLES[g.name]))
    return GateCircuit(circ.n_qubits, tuple(inv))


def parse_circuit(text: str, source: str = "<circuit>") -> GateCircuit:
    """Parse circuit text; errors carry the source name and line number."""
    n_qubits = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n_qubits is None:
            if fields[0].lower() != "qubits" or len(fields) != 2:
                raise CircuitFormatError(
                    f"{source}:{lineno}: expected 'qubits N' header, got {line!r}"
                )
            try:
                n_qubits = int(fields[1])
            except ValueError:
                raise CircuitFormatError(
                    f"{source}:{lineno}: qubit count {fields[1]!r} is not an integer"
                ) from None
            if n_qubits < 1:
                raise CircuitFormatError(f"{source}:{lineno}: qubit count must be >= 1")
            continue
        name = fields[0].upper()
        if name not in GATE_ARITY:
            raise CircuitFormatError(f"{source}:{lineno}: unknown gate {fields[0]!r}")
        rest = fields[1:]
        angle = None
        if name in ANGLE_GATES:
            if not rest:
                raise CircuitFormatError(f"{source}:{lineno}: gate {name} needs an angle")
            try:
                angle = float(rest[0])
            except ValueError:
                raise CircuitFormatError(
                    f"{source}:{lineno}: angle {rest[0]!r} is not a number"
                ) from None
            rest = rest[1:]
        arity = GATE_ARITY[name]
        if len(rest) != arity:
            raise CircuitFormatError(
                f"{source}:{lineno}: gate {name} expects {arity} target(s), got {len(rest)}"
            )
        try:
            targets = tuple(int(t) for t in rest)
        except ValueError:
            raise CircuitFormatError(
                f"{source}:{lineno}: targets {rest!r} must be integers"
            ) from None
        try:
            gates.append(Gate(name, targets, angle))
        except ValueError as exc:
            raise CircuitFormatError(f"{source}:{lineno}: {exc}") from None
    if n_qubits is None:
        raise CircuitFormatError(f"{source}: missing 'qubits N' header")
    try:
        return GateCircuit(n_qubits, tuple(gates))
    except ValueError as exc:
        raise CircuitFormatError(f"{source}: {exc}") from None


def format_circuit(circ: GateCircuit) -> str:
    lines = [f"qubits {circ.n_qubits}"]
    for g in circ.gates:
        parts = [g.name]
        if g.angle is not None:
            parts.append(repr(float(g.angle)))
        parts.extend(str(q) for q in g.qubits)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_circuit(path) -> GateCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read(), source=str(path))


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> GateCircuit:
    """Random circuit over the full gate set, for tests and sweeps."""
    names = sorted(GATE_ARITY)
    gates = []
    for _ in range(n_gates):
        while True:
            name = names[rng.integers(len(names))]
            if GATE_ARITY[name] <= n_qubits:
                break
        targets = tuple(int(q) for q in rng.choice(n_qubits, size=GATE_ARITY[name], replace=False))
        angle = float(rng.uniform(-np.pi, np.pi)) if name in ANGLE_GATES else None
        gates.append(Gate(name, targets, angle))
    return GateCircuit(n_qubits, tuple(gates))
