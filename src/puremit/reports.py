"""Estimate reports shared by the exact and sampled execution paths."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .resources import ResourceProfile


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one mitigation estimate.

    The ratio fields describe numerator / denominator of the scheme; for
    exact (infinite-shot) evaluation the stderr fields are zero and
    ``shots_used`` is 0. ``exact_ratio`` is the noiseless-machinery
    operator-level reference the sampler should converge to;
    ``ideal_value`` is the noise-free circuit value the mitigation is
    trying to recover.
    """

    kind: str
    ratio: float
    numerator: float
    denominator: float
    resources: ResourceProfile
    shots_used: int = 0
    trials: int = 1
    ratio_stderr: float = 0.0
    numerator_stderr: float = 0.0
    denominator_stderr: float = 0.0
    exact_ratio: float | None = None
    ideal_value: float | None = None
    raw_value: float | None = None
    imag_residual: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields by name, shallow: ``resources`` as its ``as_dict``, and
        ``details`` copied, left out when empty. A new field is a new key."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["resources"] = self.resources.as_dict()
        details = out.pop("details")
        if details:
            out["details"] = dict(details)
        return out
