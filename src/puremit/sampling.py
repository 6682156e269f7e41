"""Shot-based Monte Carlo estimation on top of the scheme pipelines.

Sampling is exact Born-rule sampling. Each measurable unit of a
pipeline (one numerator term or the denominator) is a computational-basis
readout whose outcome probabilities the pipeline already holds (ancilla
+1 or -1, and for the verified schemes 0 when a register does not
project to zero; ``raw`` units hold basis-state populations). They are
grouped by readout value into at most three outcomes, and counts are
drawn with a counter-based seeding scheme so results are reproducible
and independent across trials and units. ``sample_expectation`` takes an
arbitrary observable and draws in its eigenbasis instead.

``bin_outcomes`` turns a batch of uniform draws into outcome counts by
counting the draws below each interior cut of the cumulative
distribution, one vectorized pass per cut: K - 1 passes for K outcomes.
A pipeline unit has at most three outcomes, so binning costs less than
drawing; the counts equal those of a ``searchsorted`` bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, hermitian_eig
from .reports import EstimateReport
from .schemes import MeasurableTerm, SchemePipeline

_NEG_PROB_ATOL = 1e-6
_SUM_PROB_ATOL = 1e-6


class UnstableDenominatorError(RuntimeError):
    """Sampled denominator indistinguishable from zero; the ratio is unusable."""


@dataclass(frozen=True)
class ShotConfig:
    """Shot budget for one estimate: total shots, repeated trials, master seed."""

    shots: int
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class SampleStats:
    mean: float
    stderr: float
    shots: int


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Validated outcome probabilities, clipped at zero and rescaled to sum 1."""
    low = float(probs.min())
    if low < -_NEG_PROB_ATOL:
        raise ValueError(
            f"state yields negative outcome probability {low:.3e}; not a valid state"
        )
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > _SUM_PROB_ATOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    return probs / total


def _distribution(state_mat: np.ndarray, obs_mat: np.ndarray):
    """Eigenvalues of the observable and cumulative outcome probabilities."""
    w, v = hermitian_eig(obs_mat)
    probs = np.einsum("ij,jk,ki->i", v.conj().T, state_mat, v).real
    return w, np.cumsum(_normalized(probs))


def _readout_distribution(term: MeasurableTerm):
    """Distinct readout values, descending, and their cumulative probabilities."""
    values, outcome = np.unique(term.observable, return_inverse=True)
    probs = np.bincount(outcome, weights=_normalized(term.state), minlength=values.size)
    return values[::-1], np.cumsum(probs[::-1])


def bin_outcomes(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Count draws per outcome given ascending cumulative probabilities ``cum``.

    Draw u lands in the first bin whose cumulative weight exceeds it, so
    zero-probability bins stay empty and a draw equal to a cut goes to
    the bin above it. Draws at or beyond ``cum[-1]`` (possible when
    rounding leaves it below 1) fold into the last bin. Makes
    ``len(cum) - 1`` passes over the draws.
    """
    below = [np.count_nonzero(draws < c) for c in cum[:-1]]
    return np.diff(np.array([0, *below, len(draws)], dtype=np.int64))


def _draw_stats(evals: np.ndarray, cum: np.ndarray, shots: int, rng) -> SampleStats:
    counts = bin_outcomes(cum, rng.random(shots))
    mean = float((counts * evals).sum() / shots)
    if shots > 1:
        var = float((counts * (evals - mean) ** 2).sum() / (shots - 1))
    else:
        var = 0.0
    return SampleStats(mean, float(np.sqrt(var / shots)), shots)


def sample_expectation(state, observable: np.ndarray, shots: int, rng) -> SampleStats:
    """Monte Carlo estimate of Tr(observable state) from ``shots`` draws.

    The observable is diagonalized and outcomes are drawn from the exact
    eigenbasis distribution, so the estimator is unbiased with the true
    projective-measurement variance. That distribution has d outcomes,
    one per eigenvalue, so binning makes d - 1 passes over the draws; the
    O(d^3) eigendecomposition still dominates at large d.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    mat = as_matrix(state)
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != mat.shape:
        raise ValueError(f"dimension mismatch: state {mat.shape}, observable {obs.shape}")
    evals, cum = _distribution(mat, obs)
    return _draw_stats(evals, cum, shots, rng)


def ratio_estimator(numerator: SampleStats, denominator: SampleStats):
    """Ratio of two sampled means with the propagated (delta-method) stderr.

    Raises UnstableDenominatorError when the denominator mean is within 3
    standard errors of zero, since the ratio distribution is then heavy
    tailed and the linearized error bar meaningless.
    """
    d = denominator.mean
    guard = 3.0 * denominator.stderr
    if abs(d) <= guard or d == 0.0:
        raise UnstableDenominatorError(
            f"denominator {d:.4e} within 3 stderr ({denominator.stderr:.4e}) of zero"
        )
    ratio = numerator.mean / d
    stderr = float(
        np.sqrt((numerator.stderr / d) ** 2 + (ratio * denominator.stderr / d) ** 2)
    )
    return ratio, stderr


def _unit_rng(seed: int, trial: int, unit: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, unit))
    return np.random.Generator(np.random.PCG64(ss))


def scheme_shot_experiment(pipeline: SchemePipeline, config: ShotConfig) -> EstimateReport:
    """Run a pipeline at finite shots and report the sampled ratio.

    The shot budget is split evenly over the measurable units (numerator
    terms first, then the denominator; the remainder goes to the leading
    units). Each (trial, unit) pair draws from its own counter-derived
    seed, so reports are reproducible for a fixed master seed and
    independent across trials. With several trials the ratio error bar is
    the empirical spread across trials; with one trial it is the
    delta-method propagation.
    """
    units = list(pipeline.numerator_terms) + [pipeline.denominator]
    n_units = len(units)
    if config.shots < n_units:
        raise ValueError(
            f"shot budget {config.shots} smaller than the {n_units} measurement settings"
        )
    per_unit = config.shots // n_units
    extra = config.shots % n_units
    allocation = [per_unit + (1 if i < extra else 0) for i in range(n_units)]
    dists = [_readout_distribution(t) for t in units]

    trial_ratios = []
    trial_stderrs = []
    num_means = []
    den_means = []
    num_errs = []
    den_errs = []
    shots_used = 0
    for trial in range(config.trials):
        num_mean = 0.0
        num_var = 0.0
        for i, term in enumerate(pipeline.numerator_terms):
            evals, cum = dists[i]
            stats = _draw_stats(evals, cum, allocation[i], _unit_rng(config.seed, trial, i))
            shots_used += stats.shots
            num_mean += term.coefficient * stats.mean
            num_var += (term.coefficient * stats.stderr) ** 2
        evals, cum = dists[-1]
        den_stats = _draw_stats(
            evals, cum, allocation[-1], _unit_rng(config.seed, trial, n_units - 1)
        )
        shots_used += den_stats.shots
        num_stats = SampleStats(num_mean, float(np.sqrt(num_var)), sum(allocation[:-1]))
        try:
            ratio, stderr = ratio_estimator(num_stats, den_stats)
        except UnstableDenominatorError as exc:
            raise UnstableDenominatorError(
                f"trial {trial} of {config.trials}: {exc}"
            ) from exc
        trial_ratios.append(ratio)
        trial_stderrs.append(stderr)
        num_means.append(num_mean)
        den_means.append(den_stats.mean)
        num_errs.append(num_stats.stderr)
        den_errs.append(den_stats.stderr)

    trials = config.trials
    ratio = float(np.mean(trial_ratios))
    if trials > 1:
        ratio_stderr = float(np.std(trial_ratios, ddof=1) / np.sqrt(trials))
    else:
        ratio_stderr = trial_stderrs[0]
    details = {"evaluation": "sampled", "shot_allocation": allocation}
    if trials > 1:
        details["trial_ratios"] = [float(r) for r in trial_ratios]
    return EstimateReport(
        kind=pipeline.kind,
        ratio=ratio,
        numerator=float(np.mean(num_means)),
        denominator=float(np.mean(den_means)),
        resources=pipeline.resources,
        shots_used=shots_used,
        trials=trials,
        ratio_stderr=ratio_stderr,
        numerator_stderr=float(np.mean(num_errs)),
        denominator_stderr=float(np.mean(den_errs)),
        exact_ratio=pipeline.operator_ratio,
        ideal_value=pipeline.ideal_value,
        raw_value=pipeline.raw_value,
        details=details,
    )
