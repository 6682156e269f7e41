import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from puremit import sampling
from puremit.channels import NoiseModel
from puremit.circuits import Gate, GateCircuit
from puremit.observables import PauliObservable, parse_observable
from puremit.sampling import (
    SampleStats,
    ShotConfig,
    UnstableDenominatorError,
    ratio_estimator,
    sample_expectation,
    scheme_shot_experiment,
)
from puremit.schemes import build_pipeline


def _plus_pipeline(p=0.2, kind="multi-copy", copies=2):
    circ = GateCircuit(1, (Gate("H", (0,)),))
    return build_pipeline(
        kind,
        circ,
        NoiseModel("depolarizing-global", p),
        PauliObservable.single("X"),
        n_copies=copies,
    )


_GENERIC = GateCircuit(
    2,
    (
        Gate("RY", (0,), 0.9),
        Gate("RZ", (0,), -1.7),
        Gate("RY", (1,), 2.1),
        Gate("CNOT", (0, 1)),
        Gate("RY", (0,), 0.6),
        Gate("RZ", (1,), -0.8),
    ),
)
_GENERIC_OBS = parse_observable("0.6*ZX + 0.4*YI")


def _generic_pipeline(kind, copies, machinery=None):
    return build_pipeline(
        kind,
        _GENERIC,
        NoiseModel("depolarizing-local", 0.08),
        _GENERIC_OBS,
        n_copies=copies,
        machinery_noise=machinery,
    )


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(0)
    with pytest.raises(ValueError):
        ShotConfig(10, trials=0)
    cfg = ShotConfig(10)
    assert cfg.trials == 1 and cfg.seed == 0


def test_sample_expectation_deterministic_state():
    # Z on |0><0| always reads +1: zero variance at any shot count
    rng = np.random.default_rng(0)
    rho = np.diag([1.0, 0.0]).astype(complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    stats = sample_expectation(rho, z, 500, rng)
    assert stats.mean == 1.0 and stats.stderr == 0.0 and stats.shots == 500


def test_sample_expectation_binomial_spread():
    # X on |0>: outcomes +/-1 with p = 1/2; check mean and stderr scales
    rng = np.random.default_rng(1)
    rho = np.diag([1.0, 0.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    shots = 40000
    stats = sample_expectation(rho, x, shots, rng)
    assert abs(stats.mean) < 5.0 / np.sqrt(shots)
    assert stats.stderr == pytest.approx(1.0 / np.sqrt(shots), rel=0.05)


def test_sample_expectation_is_reproducible():
    rho = np.full((2, 2), 0.5, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    a = sample_expectation(rho, z, 1000, np.random.default_rng(7))
    b = sample_expectation(rho, z, 1000, np.random.default_rng(7))
    assert a == b


def test_sample_expectation_rejects_invalid_state():
    bad = np.diag([1.5, -0.5]).astype(complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        sample_expectation(bad, z, 10, np.random.default_rng(0))


def test_ratio_estimator_frozen_arithmetic():
    num = SampleStats(0.5, 0.01, 1000)
    den = SampleStats(0.8, 0.01, 1000)
    ratio, stderr = ratio_estimator(num, den)
    assert ratio == pytest.approx(0.625, abs=1e-15)
    assert stderr == pytest.approx(0.014740595518838443, abs=1e-15)


def test_ratio_estimator_unstable_denominator():
    num = SampleStats(0.5, 0.01, 100)
    with pytest.raises(UnstableDenominatorError):
        ratio_estimator(num, SampleStats(0.02, 0.01, 100))  # within 3 sigma
    with pytest.raises(UnstableDenominatorError):
        ratio_estimator(num, SampleStats(0.0, 0.0, 100))
    # just outside the guard is fine
    ratio, _ = ratio_estimator(num, SampleStats(0.05, 0.01, 100))
    assert ratio == pytest.approx(10.0, abs=1e-12)


def test_scheme_shot_experiment_reproducible_and_converging():
    pipe = _plus_pipeline()
    exact = pipe.exact_report()
    rep1 = scheme_shot_experiment(pipe, ShotConfig(shots=60000, seed=3))
    rep2 = scheme_shot_experiment(pipe, ShotConfig(shots=60000, seed=3))
    assert rep1.ratio == rep2.ratio and rep1.ratio_stderr == rep2.ratio_stderr
    assert rep1.shots_used == 60000
    assert abs(rep1.ratio - exact.ratio) <= 5.0 * rep1.ratio_stderr
    assert rep1.details["evaluation"] == "sampled"
    diff = scheme_shot_experiment(pipe, ShotConfig(shots=60000, seed=4))
    assert diff.ratio != rep1.ratio


def test_scheme_shot_experiment_allocates_all_shots():
    circ = GateCircuit(1, (Gate("H", (0,)),))
    obs = PauliObservable(((0.5, "X"), (0.5, "Z")))
    pipe = build_pipeline("multi-copy", circ, NoiseModel("depolarizing-global", 0.1), obs)
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=1001, seed=0))
    alloc = rep.details["shot_allocation"]
    assert sum(alloc) == 1001 and len(alloc) == 3  # two terms + denominator
    assert max(alloc) - min(alloc) <= 1
    assert rep.shots_used == 1001
    with pytest.raises(ValueError):
        scheme_shot_experiment(pipe, ShotConfig(shots=2, seed=0))


def test_numerator_stats_count_the_numerator_shots(monkeypatch):
    seen = []
    real = sampling.ratio_estimator

    def capture(numerator, denominator):
        seen.append((numerator.shots, denominator.shots))
        return real(numerator, denominator)

    monkeypatch.setattr(sampling, "ratio_estimator", capture)
    circ = GateCircuit(1, (Gate("H", (0,)),))
    obs = PauliObservable(((0.5, "X"), (0.5, "Z")))
    pipe = build_pipeline("multi-copy", circ, NoiseModel("depolarizing-global", 0.1), obs)
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=1001, trials=2, seed=0))
    alloc = rep.details["shot_allocation"]
    assert alloc == [334, 334, 333]
    assert seen == [(668, 333), (668, 333)]


def test_scheme_shot_experiment_multi_trial_spread():
    pipe = _plus_pipeline()
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=4000, trials=8, seed=5))
    assert rep.trials == 8
    assert len(rep.details["trial_ratios"]) == 8
    assert rep.ratio == pytest.approx(np.mean(rep.details["trial_ratios"]), abs=1e-12)
    want = np.std(rep.details["trial_ratios"], ddof=1) / np.sqrt(8)
    assert rep.ratio_stderr == pytest.approx(want, abs=1e-12)


def test_stderr_shrinks_with_noise_strength_trend():
    # weaker noise concentrates the verified denominator near 1, so the
    # sampled error bar tightens as p drops
    errs = []
    for p in (0.3, 0.1):
        pipe = _plus_pipeline(p=p, kind="state-verification", copies=1)
        rep = scheme_shot_experiment(pipe, ShotConfig(shots=20000, seed=11))
        errs.append(rep.ratio_stderr)
    assert errs[1] < errs[0]


def test_sampled_report_carries_references():
    pipe = _plus_pipeline()
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=3000, seed=2))
    assert rep.exact_ratio == pytest.approx(0.975609756097561, abs=1e-12)
    assert rep.ideal_value == pytest.approx(1.0, abs=1e-12)
    assert rep.raw_value == pytest.approx(0.8, abs=1e-12)


# (kind, copies, dephasing machinery, trials): ratio, ratio_stderr,
# numerator, denominator at 6000 shots, seed 17, recorded from the
# eigenbasis sampler that drew in the spectrum of each readout operator
_FROZEN_SAMPLED = {
    ("raw", 1, False, 1): (-0.08600000000000001, 0.015570696300796757, -0.08600000000000001, 1.0),
    ("raw", 1, False, 3): (-0.08953333333333335, 0.00787936827699051, -0.08953333333333335, 1.0),
    ("raw", 1, True, 1): (-0.08600000000000001, 0.015570696300796757, -0.08600000000000001, 1.0),
    ("raw", 1, True, 3): (-0.08953333333333335, 0.00787936827699051, -0.08953333333333335, 1.0),
    ("multi-copy", 2, False, 1): (-0.12084805653710248, 0.027948124393630182, -0.0684, 0.566),
    ("multi-copy", 2, False, 3): (-0.12203255132020434, 0.016884637062257006, -0.0722, 0.5936666666666666),
    ("multi-copy", 2, True, 1): (-0.11295116772823782, 0.033881364136030205, -0.05320000000000001, 0.471),
    ("multi-copy", 2, True, 3): (-0.12010479051158023, 0.021740849533794283, -0.05873333333333334, 0.492),
    ("state-verification", 1, False, 1): (-0.1538720538720539, 0.01641696604136064, -0.09140000000000002, 0.594),
    ("state-verification", 1, False, 3): (-0.14130798412122605, 0.014058974069334524, -0.08516666666666668, 0.6038333333333333),
    ("state-verification", 1, True, 1): (-0.15067024128686332, 0.01756761182848566, -0.08430000000000003, 0.5595),
    ("state-verification", 1, True, 3): (-0.140550259541852, 0.012138633242269818, -0.08000000000000002, 0.57),
    ("combined", 2, False, 1): (-0.16470588235294117, 0.02399501557727004, -0.0546, 0.3315),
    ("combined", 2, False, 3): (-0.1448754784113356, 0.0170103006391064, -0.050100000000000006, 0.3481666666666667),
    ("combined", 2, True, 1): (-0.14459724950884087, 0.030852260557410582, -0.0368, 0.2545),
    ("combined", 2, True, 3): (-0.12884494674000554, 0.025343985240441885, -0.034066666666666676, 0.26866666666666666),
}


@pytest.mark.parametrize("case", sorted(_FROZEN_SAMPLED), ids=str)
def test_seeded_sampled_outputs_are_frozen(case):
    kind, copies, noisy_machinery, trials = case
    mach = NoiseModel("dephasing", 0.03) if noisy_machinery else None
    pipe = _generic_pipeline(kind, copies, mach)
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=6000, trials=trials, seed=17))
    got = (rep.ratio, rep.ratio_stderr, rep.numerator, rep.denominator)
    assert np.max(np.abs(np.subtract(got, _FROZEN_SAMPLED[case]))) <= 1e-12


_SAMPLED_KINDS = [
    ("raw", 1),
    ("multi-copy", 2),
    ("multi-copy-recycled", 3),
    ("state-verification", 1),
    ("combined", 2),
]


@pytest.mark.parametrize("kind,copies", _SAMPLED_KINDS)
def test_scheme_sampling_needs_no_eigendecomposition(monkeypatch, kind, copies):
    def refuse(*args, **kwargs):
        raise AssertionError("pipeline sampling called hermitian_eig")

    pipe = _generic_pipeline(kind, copies, NoiseModel("dephasing", 0.03))
    monkeypatch.setattr(sampling, "hermitian_eig", refuse)
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=3000, trials=2, seed=1))
    assert rep.shots_used == 6000


@pytest.mark.parametrize("kind,copies", _SAMPLED_KINDS)
def test_scheme_sampling_needs_no_bisection(monkeypatch, kind, copies):
    def refuse(*args, **kwargs):
        raise AssertionError("pipeline sampling called np.searchsorted")

    pipe = _generic_pipeline(kind, copies, NoiseModel("dephasing", 0.03))
    monkeypatch.setattr(np, "searchsorted", refuse)
    rep = scheme_shot_experiment(pipe, ShotConfig(shots=3000, trials=2, seed=1))
    assert rep.shots_used == 6000


def test_bin_outcomes_matches_searchsorted():
    rng = np.random.default_rng(7)
    probs = np.array([0.1, 0.0, 0.4, 0.5])
    cum = np.cumsum(probs)
    draws = rng.uniform(size=1000)
    counts = sampling.bin_outcomes(cum, draws)
    assert counts.sum() == 1000
    assert counts[1] == 0  # zero-probability bin never drawn
    idx = np.searchsorted(cum, draws, side="right")
    want = np.bincount(np.minimum(idx, 3), minlength=4)
    assert np.array_equal(counts, want)


def test_bin_outcomes_folds_overflow_draws():
    # rounding can leave cum[-1] slightly below 1; draws beyond it must
    # land in the last bin instead of indexing out of range
    cum = np.array([0.25, 0.5, 1.0 - 1e-12])
    draws = np.array([0.999999999999999, 0.1, 0.3])
    counts = sampling.bin_outcomes(cum, draws)
    assert counts.tolist() == [1, 1, 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 17])
def test_bin_outcomes_equals_bisection_on_edge_draws(k):
    rng = np.random.default_rng(100 + k)
    for zero_bins in (False, True):
        for top in (1.0, 1.0 - 1e-12):
            probs = rng.uniform(size=k)
            if zero_bins:
                probs[0 : k - 1 : 2] = 0.0
            cum = np.cumsum(probs / probs.sum())
            cum[-1] = top
            # uniform draws, draws exactly on every cut, and draws just
            # below, past and at 1
            edges = [np.nextafter(top, 0.0), (top + 1.0) / 2, 1.0]
            draws = np.concatenate([rng.random(3000), cum, edges])
            got = sampling.bin_outcomes(cum, draws)
            idx = np.searchsorted(cum, draws, side="right")
            want = np.bincount(np.minimum(idx, k - 1), minlength=k)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_import_does_not_load_numba():
    # the child must import the same puremit, installed or not; the spy
    # sees every import attempt, including ones that fail
    src = str(Path(sampling.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "tried = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        tried.append(name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import puremit\n"
        "print('numba' in sys.modules, any(n.split('.')[0] == 'numba' for n in tried))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False False"


def test_readout_outcomes_are_grouped_by_value():
    # a verified readout has three outcomes: ancilla +1 or -1 with the
    # registers at zero, and everything else reading 0
    pipe = _generic_pipeline("combined", 2)
    values, cum = sampling._readout_distribution(pipe.denominator)
    assert values.tolist() == [1.0, 0.0, -1.0]
    assert cum[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(cum) >= 0)


def test_unstable_denominator_names_the_failing_trial():
    # at seed 4 trials 0 and 1 pass the guard and trial 2 trips it
    pipe = _plus_pipeline(p=0.6, copies=3)
    for trials in (1, 2):
        scheme_shot_experiment(pipe, ShotConfig(shots=20, trials=trials, seed=4))
    with pytest.raises(UnstableDenominatorError, match=r"^trial 2 of 4: denominator"):
        scheme_shot_experiment(pipe, ShotConfig(shots=20, trials=4, seed=4))
