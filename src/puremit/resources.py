"""Resource accounting for the mitigation schemes.

Counts follow the circuit constructions: a degree-D product needs D
registers and D-1 controlled register swaps in depth 1; recycling copies
trades registers for depth; verifying against the dual state replaces
half the copies with inverse circuits. Qubit-level counts multiply
register swaps by the register width, since one controlled register swap
is one controlled qubit swap per qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

SCHEME_KINDS = (
    "raw",
    "multi-copy",
    "multi-copy-recycled",
    "state-verification",
    "combined",
)


def check_scheme_kind(kind: str) -> str:
    if kind not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}; choose from {SCHEME_KINDS}")
    return kind


@dataclass(frozen=True)
class ResourceProfile:
    """Hardware cost of one scheme instance at purification degree ``degree``."""

    kind: str
    degree: int
    registers: int
    control_register_swaps: int
    qubit_level_control_swaps: int
    depth_factor: int
    ancillas: int

    def as_dict(self) -> dict:
        """The fields by name, in field order (the CSV columns' order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def resource_profile(kind: str, degree: int, n_qubits: int) -> ResourceProfile:
    """Resource counts for a scheme at a given purification degree.

    ``degree`` is the power of the noisy state the scheme effectively
    measures: M for the multi-copy schemes, 2 for state verification,
    2M (even) for the combined scheme. ``n_qubits`` is the register
    width, used for the qubit-level swap count.
    """
    check_scheme_kind(kind)
    if n_qubits < 1:
        raise ValueError(f"register width must be >= 1, got {n_qubits}")
    if kind == "raw":
        if degree != 1:
            raise ValueError(f"raw estimation has degree 1, got {degree}")
        return ResourceProfile(kind, 1, 1, 0, 0, 1, 0)
    if kind in ("multi-copy", "multi-copy-recycled"):
        if degree < 2:
            raise ValueError(f"{kind} needs degree >= 2, got {degree}")
        swaps = degree - 1
        if kind == "multi-copy":
            return ResourceProfile(kind, degree, degree, swaps, swaps * n_qubits, 1, 1)
        # recycled: two live registers, swaps executed one after another
        return ResourceProfile(kind, degree, 2, swaps, swaps * n_qubits, degree - 1, 1)
    if kind == "state-verification":
        if degree != 2:
            raise ValueError(f"state verification has degree 2, got {degree}")
        return ResourceProfile(kind, 2, 1, 0, 0, 2, 1)
    # combined: degree 2M over M physical registers
    if degree < 2 or degree % 2 != 0:
        raise ValueError(f"combined scheme needs an even degree >= 2, got {degree}")
    m = degree // 2
    return ResourceProfile(kind, degree, m, m - 1, (m - 1) * n_qubits, 2, 1)
