import csv
import json
import re

import numpy as np
import pytest

from puremit import cli, schemes
from puremit.channels import NO_NOISE, NoiseModel
from puremit.cli import main
from puremit.config import (
    ConfigError,
    ExperimentConfig,
    format_config,
    load_config,
    parse_config,
)
from puremit.reference import self_checks
from puremit.reports import EstimateReport
from puremit.resources import resource_profile

PLUS_CIRCUIT = "qubits 1\nH 0\n"
BELL_CIRCUIT = "qubits 2\nH 0\nCNOT 0 1\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _base_config(tmp_path, **overrides):
    _write(tmp_path, "plus.circ", PLUS_CIRCUIT)
    lines = {
        "scheme": "multi-copy",
        "circuit": "plus.circ",
        "observable": "X",
        "m": "2",
        "shots": "exact",
        "noise.kind": "depolarizing-global",
        "noise.strength": "0.2",
    }
    lines.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    return _write(tmp_path, "exp.cfg", text)


# --- config parsing ---------------------------------------------------------


def test_parse_config_round_trip():
    cfg = ExperimentConfig(
        scheme="combined",
        circuit="c.circ",
        observable="0.5*ZI + 0.5*IZ",
        m=3,
        shots=2000,
        trials=4,
        seed=9,
        noise=NoiseModel("dephasing", 0.1),
        machinery_noise=NoiseModel("depolarizing-local", 0.02),
        dual_noise=NO_NOISE,
        output="out.json",
    )
    assert parse_config(format_config(cfg)) == cfg
    assert parse_config(format_config(_SPARSE_CONFIG)) == _SPARSE_CONFIG


# shots exact, no dual noise and no output path
_SPARSE_CONFIG = ExperimentConfig(
    scheme="state-verification",
    circuit="bell.circ",
    observable="ZZ",
    noise=NoiseModel("amplitude-damping", 0.05),
)


def test_format_config_text_with_every_field_set():
    cfg = ExperimentConfig(
        scheme="combined",
        circuit="c.circ",
        observable="0.5*ZI + 0.5*IZ",
        m=3,
        shots=2000,
        trials=4,
        seed=9,
        noise=NoiseModel("dephasing", 0.1),
        machinery_noise=NoiseModel("depolarizing-local", 0.02),
        dual_noise=NO_NOISE,
        output="out.json",
    )
    assert format_config(cfg) == (
        "scheme = combined\n"
        "circuit = c.circ\n"
        "observable = 0.5*ZI + 0.5*IZ\n"
        "m = 3\n"
        "shots = 2000\n"
        "trials = 4\n"
        "seed = 9\n"
        "noise.kind = dephasing\n"
        "noise.strength = 0.1\n"
        "machinery_noise.kind = depolarizing-local\n"
        "machinery_noise.strength = 0.02\n"
        "dual_noise.kind = none\n"
        "dual_noise.strength = 0.0\n"
        "output = out.json\n"
    )


def test_format_config_text_with_exact_shots_and_unset_fields():
    assert format_config(_SPARSE_CONFIG) == (
        "scheme = state-verification\n"
        "circuit = bell.circ\n"
        "observable = ZZ\n"
        "m = 2\n"
        "shots = exact\n"
        "trials = 1\n"
        "seed = 0\n"
        "noise.kind = amplitude-damping\n"
        "noise.strength = 0.05\n"
        "machinery_noise.kind = none\n"
        "machinery_noise.strength = 0.0\n"
    )


def test_parse_config_defaults():
    cfg = parse_config("scheme = raw\ncircuit = a.circ\nobservable = Z\n")
    assert cfg.m == 2 and cfg.shots is None and cfg.trials == 1 and cfg.seed == 0
    assert cfg.noise == NO_NOISE and cfg.machinery_noise == NO_NOISE
    assert cfg.dual_noise is None and cfg.output is None


def test_parse_config_comments_and_exact_shots():
    text = "# exp\nscheme = raw\ncircuit = a.circ  # relative\nobservable = Z\nshots = EXACT\n"
    assert parse_config(text).shots is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("scheme raw\n", "expected 'key = value'"),
        ("flavor = raw\n", "unknown key"),
        ("scheme = raw\nscheme = raw\n", "duplicate key"),
        ("scheme =\n", "empty value"),
        ("scheme = raw\ncircuit = a\n", "missing required key 'observable'"),
        ("scheme = raw\ncircuit = a\nobservable = Z\nshots = lots\n", "not an integer"),
        ("scheme = raw\ncircuit = a\nobservable = Z\nm = two\n", "not an integer"),
        (
            "scheme = raw\ncircuit = a\nobservable = Z\nnoise.strength = 0.1\n",
            "without noise.kind",
        ),
        (
            "scheme = raw\ncircuit = a\nobservable = Z\nnoise.kind = cosmic\n",
            "unknown noise kind",
        ),
        (
            "scheme = raw\ncircuit = a\nobservable = Z\nnoise.kind = dephasing\nnoise.strength = 1.4\n",
            "noise.strength",
        ),
        ("scheme = distill\ncircuit = a\nobservable = Z\n", "unknown scheme"),
        ("scheme = raw\ncircuit = a\nobservable = Q\n", "observable"),
        ("scheme = raw\ncircuit = a\nobservable = Z\nm = 0\n", "M must be >= 1"),
        (
            "scheme = raw\ncircuit = a\nobservable = Z\nseed = -3\n",
            "exp.cfg: seed must be >= 0, got -3",
        ),
    ],
)
def test_parse_config_diagnostics(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text, source="exp.cfg")
    assert fragment in str(err.value)


@pytest.mark.parametrize("line", ["shots = lots", "m = two"])
def test_parse_config_field_errors_name_the_source(line):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scheme = raw\ncircuit = a\nobservable = Z\n{line}\n", source="exp.cfg")
    assert str(err.value).startswith("exp.cfg: field ")


@pytest.mark.parametrize("field", ["noise", "machinery_noise", "dual_noise"])
def test_parse_config_kind_none_takes_strength_zero_only(field):
    # kind none applies no strength, so a config naming one would echo a
    # strength its run never applies
    base = f"scheme = raw\ncircuit = a\nobservable = Z\n{field}.kind = none\n"
    for text in (base, f"{base}{field}.strength = 0\n", f"{base}{field}.strength = 0.0\n"):
        cfg = parse_config(text)
        assert getattr(cfg, field) == NO_NOISE
        assert parse_config(format_config(cfg)) == cfg
    with pytest.raises(ConfigError) as err:
        parse_config(f"{base}{field}.strength = 0.3\n", source="exp.cfg")
    assert str(err.value).startswith(f"exp.cfg: field {field}.strength: {field}.kind = none")


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("scheme = raw\nbogus line\n", source="exp.cfg")
    assert str(err.value).startswith("exp.cfg:2:")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


# --- verify -----------------------------------------------------------------


def test_cmd_verify_passes(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "residual" in l]
    assert len(lines) == 10
    assert lines[-1].startswith("pipeline-outcomes")
    assert all("PASS" in l for l in lines)
    assert "all checks passed" in out


def test_cmd_verify_fails_a_sweep_that_never_swaps(monkeypatch, capsys):
    # the pipeline check reads the outcomes of a build whose even-pair
    # terms keep every swapped column in place, as if the Fredkins were
    # absent, each term still added into the blocks its column 0 names
    pair_trace = schemes._pair_trace

    def unswapped(key, *args):
        return pair_trace((schemes._KEPT,) * len(key), *args)

    monkeypatch.setattr(schemes, "_pair_trace", unswapped)
    assert main(["verify", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines if "FAIL" in l] == ["pipeline-outcomes"]


def test_cmd_verify_is_deterministic(capsys):
    main(["verify", "--seed", "4"])
    first = capsys.readouterr().out
    main(["verify", "--seed", "4"])
    assert capsys.readouterr().out == first


def test_cmd_verify_impossible_tolerance_fails(capsys):
    assert main(["verify", "--tolerance", "1e-300"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_self_checks_yield_the_ten_checks_verify_prints(capsys):
    checks = list(self_checks(2))
    assert [name for name, _ in checks] == [
        "cyclic-contraction",
        "verified-contraction",
        "adjoint-pairing",
        "noisy-state-reconstruction",
        "dual-state-reconstruction",
        "projective-split",
        "rotation-split",
        "product-reconstruction",
        "hadamard-test",
        "pipeline-outcomes",
    ]
    # verify prints each check as self_checks yields it, residual and all
    assert main(["verify", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{name:<28} max residual {r:.3e}  PASS" for name, r in checks]


# --- run --------------------------------------------------------------------


def test_cmd_run_exact_report(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["scheme"] == "multi-copy"
    assert payload["config"]["shots"] == "exact"
    report = payload["report"]
    assert report["ratio"] == pytest.approx(0.975609756097561, abs=1e-12)
    assert report["resources"]["registers"] == 2
    assert "wall_time_s" in payload
    assert payload["wall_time_s"] >= 0.0


def test_cmd_run_reads_the_circuit_path_relative_to_the_config_or_absolute(tmp_path, capsys):
    circuit = _write(tmp_path, "plus.circ", PLUS_CIRCUIT)
    (tmp_path / "cfg").mkdir()
    reports = []
    for path in ("../plus.circ", str(circuit)):
        text = f"scheme = raw\ncircuit = {path}\nobservable = X\n"
        cfg = _write(tmp_path / "cfg", "exp.cfg", text)
        assert main(["run", "--config", str(cfg)]) == 0
        reports.append(json.loads(capsys.readouterr().out)["report"])
    assert reports[0] == reports[1]
    assert reports[0]["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_cmd_run_noiseless_hits_ideal(tmp_path, capsys):
    _write(tmp_path, "bell.circ", BELL_CIRCUIT)
    cfg = _write(
        tmp_path,
        "c.cfg",
        "scheme = combined\ncircuit = bell.circ\nobservable = ZZ\nm = 2\nshots = exact\n",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["ratio"] == pytest.approx(report["ideal_value"], abs=1e-10)
    assert report["ideal_value"] == pytest.approx(1.0, abs=1e-12)


def test_cmd_run_sampled_with_overrides(tmp_path, capsys):
    cfg = _base_config(tmp_path, shots="5000")
    assert main(["run", "--config", str(cfg), "--seed", "9", "--shots", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 9
    assert payload["config"]["shots"] == 2000
    assert payload["report"]["shots_used"] == 2000
    assert payload["report"]["ratio_stderr"] > 0


def test_cmd_run_names_the_trial_with_an_unstable_denominator(tmp_path, capsys):
    # trials 0 and 1 pass the denominator guard at this seed, trial 2 does not
    cfg = _base_config(
        tmp_path, m="3", shots="20", trials="4", seed="4", **{"noise.strength": "0.6"}
    )
    assert main(["run", "--config", str(cfg)]) == 1
    assert "trial 2 of 4" in capsys.readouterr().err


def test_cmd_run_writes_output_file(tmp_path):
    out = tmp_path / "report.json"
    cfg = _base_config(tmp_path, output="ignored.json")
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["kind"] == "multi-copy"


def _strip_wall_time(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": [^,\n]+,?$', "", text, flags=re.M)


def test_cmd_run_reports_are_deterministic_minus_wall_time(tmp_path):
    cfg = _base_config(tmp_path, shots="4000", **{"seed": "13"})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--output", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--output", str(b)]) == 0
    ta, tb = a.read_text(), b.read_text()
    assert '"wall_time_s"' in ta
    assert _strip_wall_time(ta) == _strip_wall_time(tb)


_NOISE_KEYS = {"kind", "strength"}
_REPORT_KEYS = {
    "kind",
    "ratio",
    "numerator",
    "denominator",
    "shots_used",
    "trials",
    "ratio_stderr",
    "numerator_stderr",
    "denominator_stderr",
    "exact_ratio",
    "ideal_value",
    "raw_value",
    "imag_residual",
    "resources",
    "details",
}
_PROFILE_KEYS = {
    "kind",
    "degree",
    "registers",
    "control_register_swaps",
    "qubit_level_control_swaps",
    "depth_factor",
    "ancillas",
}


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_cmd_run_json_keys_and_nesting(tmp_path, sampled):
    # the config's output path is never echoed; dual noise only when set
    overrides = {"output": "ignored.json"}
    if sampled:
        overrides.update(
            {"shots": "2000", "dual_noise.kind": "dephasing", "dual_noise.strength": "0.01"}
        )
    cfg = _base_config(tmp_path, **overrides)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "report", "wall_time_s"}
    config = payload["config"]
    models = ["noise", "machinery_noise"] + (["dual_noise"] if sampled else [])
    assert set(config) == {"scheme", "circuit", "observable", "m", "shots", "trials", "seed"} | set(
        models
    )
    assert config["shots"] == (2000 if sampled else "exact")
    assert config["noise"] == {"kind": "depolarizing-global", "strength": 0.2}
    assert config["machinery_noise"] == {"kind": "none", "strength": 0.0}
    if sampled:
        assert config["dual_noise"] == {"kind": "dephasing", "strength": 0.01}
    nested = [key for key, value in config.items() if isinstance(value, dict)]
    assert sorted(nested) == sorted(models)
    assert all(set(config[key]) == _NOISE_KEYS for key in models)
    report = payload["report"]
    assert set(report) == _REPORT_KEYS
    nested = [key for key, value in report.items() if isinstance(value, dict)]
    assert sorted(nested) == ["details", "resources"]
    assert set(report["resources"]) == _PROFILE_KEYS
    assert not any(isinstance(v, (dict, list)) for v in report["resources"].values())
    evaluation = "sampled" if sampled else "pipeline-exact"
    assert report["details"]["evaluation"] == evaluation
    assert set(report["details"]) == (
        {"evaluation", "shot_allocation"} if sampled else {"evaluation"}
    )


def test_report_as_dict_leaves_out_empty_details_and_copies_the_rest():
    profile = resource_profile("raw", 1, 1)
    report = EstimateReport("raw", 0.5, 0.5, 1.0, profile)
    out = report.as_dict()
    assert set(out) == _REPORT_KEYS - {"details"}
    assert out["resources"] == {
        "kind": "raw",
        "degree": 1,
        "registers": 1,
        "control_register_swaps": 0,
        "qubit_level_control_swaps": 0,
        "depth_factor": 1,
        "ancillas": 0,
    }
    details = {"evaluation": "pipeline-exact"}
    out = EstimateReport("raw", 0.5, 0.5, 1.0, profile, details=details).as_dict()
    assert out["details"] == details and out["details"] is not details


def test_cmd_run_m1_multicopy_degrades_to_raw(tmp_path, capsys):
    cfg = _base_config(tmp_path, m="1")
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["kind"] == "raw"
    assert report["ratio"] == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("field", ["noise", "machinery_noise", "dual_noise"])
def test_cmd_run_refuses_a_strength_on_kind_none(tmp_path, capsys, field):
    cfg = _base_config(tmp_path, **{f"{field}.kind": "none", f"{field}.strength": "0.3"})
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field}.kind = none" in captured.err


# --- sweep ------------------------------------------------------------------


def test_cmd_sweep_copies_bias_strictly_decreasing(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(
        ["sweep", "--config", str(cfg), "--parameter", "M", "--values", "1,2,3,4"]
    ) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["value"] for r in rows] == ["1", "2", "3", "4"]
    assert rows[0]["scheme"] == "raw" and rows[1]["scheme"] == "multi-copy"
    biases = [float(r["exact_bias"]) for r in rows]
    assert all(b > a for a, b in zip(biases[1:], biases))  # strictly decreasing
    assert [r["registers"] for r in rows] == ["1", "2", "3", "4"]


def test_cmd_sweep_noise_strength_zero_is_unbiased(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--parameter",
            "noise.strength",
            "--values",
            "0,0.1",
        ]
    ) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert float(rows[0]["exact_bias"]) <= 1e-12
    assert float(rows[1]["exact_bias"]) > 1e-6


def test_cmd_sweep_noise_strength_rejects_noise_kind_none(tmp_path, capsys):
    cfg = _base_config(tmp_path, **{"noise.kind": "none", "noise.strength": "0"})
    argv = ["sweep", "--config", str(cfg), "--parameter", "noise.strength"]
    assert main(argv + ["--values", "0,0.05,0.2", "--exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noise.kind = none" in captured.err


def test_cmd_sweep_pure_input_all_schemes_unbiased(tmp_path, capsys):
    # noiseless preparation: every degree reproduces the ideal value
    _write(tmp_path, "bell.circ", BELL_CIRCUIT)
    cfg = _write(
        tmp_path,
        "p.cfg",
        "scheme = multi-copy\ncircuit = bell.circ\nobservable = ZZ\nshots = exact\n",
    )
    assert main(
        ["sweep", "--config", str(cfg), "--parameter", "M", "--values", "1,2,3"]
    ) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    for row in rows:
        assert float(row["exact_bias"]) <= 1e-10


def test_cmd_sweep_sampled_keeps_exact_bias_column(tmp_path, capsys):
    cfg = _base_config(tmp_path, shots="3000")
    assert main(
        ["sweep", "--config", str(cfg), "--parameter", "M", "--values", "2", "--seed", "3"]
    ) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert float(row["ratio_stderr"]) > 0
    assert float(row["exact_bias"]) == pytest.approx(
        abs(float(row["exact_ratio"]) - float(row["ideal_value"])), abs=1e-15
    )
    assert row["shots_used"] == "3000"


def test_cmd_sweep_seed_reproducible(tmp_path):
    cfg = _base_config(tmp_path, shots="2000")
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--parameter",
                "M",
                "--values",
                "1,2",
                "--seed",
                "21",
                "--output",
                str(out),
            ]
        ) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "extra",
    [["--values", "2,3"], ["--values", "2,3", "--exact"],
     ["--parameter", "noise.strength", "--values", "0.1,0.3"]],
)
def test_cmd_sweep_builds_each_point_once(tmp_path, capsys, monkeypatch, extra):
    # a sampled point reads its exact ratio off the pipeline it sampled
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return build_pipeline(*args, **kwargs)

    build_pipeline = cli.build_pipeline
    monkeypatch.setattr(cli, "build_pipeline", counting)
    cfg = _base_config(tmp_path, shots="2000")
    assert main(["sweep", "--config", str(cfg), *extra]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(built) == len(rows) == 2
    assert {r["shots_used"] for r in rows} == {"0" if "--exact" in extra else "2000"}


def test_cmd_sweep_rejects_bad_values(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--values", "x"]) == 2
    assert main(["sweep", "--config", str(cfg), "--values", " , "]) == 2
    capsys.readouterr()


def _run_report(tmp_path, capsys, *extra, **lines):
    """The report of ``run`` on the base config with these lines set."""
    cfg = _base_config(tmp_path, **lines)
    assert main(["run", "--config", str(cfg), *extra]) == 0
    return json.loads(capsys.readouterr().out)["report"]


@pytest.mark.parametrize("shots", ["exact", "2000"])
@pytest.mark.parametrize(
    "parameter, values, lines",
    [
        ("machinery_noise.strength", "0,0.05", {"machinery_noise.kind": "amplitude-damping"}),
        ("dual_noise.strength", "0.02,0.1", {"dual_noise.kind": "amplitude-damping"}),
        ("noise.kind", "dephasing,amplitude-damping", {}),
        ("seed", "1,2", {}),
    ],
)
def test_cmd_sweep_rows_match_run_on_the_config_with_that_line(
    tmp_path, capsys, parameter, values, lines, shots
):
    # a sweep point is the config with the swept key's line replaced; its
    # exact_ratio column is the exact run's ratio, which machinery noise moves
    lines = {"scheme": "combined", "shots": shots, **lines}
    cfg = _base_config(tmp_path, **lines)
    argv = ["sweep", "--config", str(cfg), "--parameter", parameter, "--values", values]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["parameter"], r["value"]) for r in rows] == [
        (parameter, value) for value in values.split(",")
    ]
    for row in rows:
        run = _run_report(tmp_path, capsys, **lines, **{parameter: row["value"]})
        exact = _run_report(tmp_path, capsys, "--exact", **lines, **{parameter: row["value"]})
        assert float(row["ratio"]) == run["ratio"]
        assert float(row["exact_ratio"]) == exact["ratio"]
        assert int(row["shots_used"]) == run["shots_used"]
    # each key takes effect; an exact run reads no seed
    distinct = 1 if (parameter, shots) == ("seed", "exact") else 2
    assert len({r["ratio"] for r in rows}) == distinct


@pytest.mark.parametrize("key", ["noise.flavor", "dual_noise.strength"])
def test_cmd_sweep_refuses_what_the_config_parser_refuses(tmp_path, capsys, key):
    # an unknown key, and a strength whose model has no kind (the base
    # config sets no dual_noise.kind)
    cfg = _base_config(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--parameter", key, "--values", "0.1,0.2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize(
    "key, values, lines",
    [
        ("M", "1,2,3", {"scheme": "state-verification"}),
        ("dual_noise.strength", "0.02,0.1", {"dual_noise.kind": "dephasing"}),
        (
            "machinery_noise.strength",
            "0,0.05",
            {"scheme": "raw", "machinery_noise.kind": "dephasing"},
        ),
        ("output", "a.csv,b.csv", {}),
    ],
)
def test_cmd_sweep_refuses_a_key_no_point_reads(tmp_path, capsys, key, values, lines):
    # every point would run the same pipeline and write the same row; each
    # model's kind is set, so the config parser takes every point
    cfg = _base_config(tmp_path, **lines)
    argv = ["sweep", "--config", str(cfg), "--parameter", key, "--values", values]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(key) in captured.err
    assert lines.get("scheme", "multi-copy") in captured.err


def test_cmd_sweep_checks_m_against_the_scheme_as_written(tmp_path, capsys):
    # multi-copy at M = 1 runs as raw, which reads no machinery noise; M
    # itself decides that, so its sweep runs
    cfg = _base_config(tmp_path, m="1", **{"machinery_noise.kind": "dephasing"})
    assert main(["sweep", "--config", str(cfg), "--parameter", "M", "--values", "1,2"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["scheme"] for r in rows] == ["raw", "multi-copy"]
    argv = ["sweep", "--config", str(cfg), "--parameter", "machinery_noise.strength"]
    assert main(argv + ["--values", "0,0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no raw point" in captured.err


def test_cmd_sweep_takes_the_scheme_itself(tmp_path, capsys):
    cfg = _base_config(tmp_path, **{"machinery_noise.kind": "dephasing"})
    argv = ["sweep", "--config", str(cfg), "--parameter", "scheme"]
    assert main(argv + ["--values", "raw,state-verification,combined"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["scheme"] for r in rows] == ["raw", "state-verification", "combined"]


def test_cmd_sweep_value_column_holds_the_value_as_given(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--parameter", "noise.strength"]
    assert main(argv + ["--values", "0.10, 1e-1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["value"] for r in rows] == ["0.10", "1e-1"]
    assert rows[0]["ratio"] == rows[1]["ratio"]


# --- resources --------------------------------------------------------------


def test_cmd_resources_table(capsys):
    assert main(["resources", "--qubits", "2", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == [
        "kind",
        "degree",
        "registers",
        "ctrl_register_swaps",
        "ctrl_qubit_swaps",
        "depth_factor",
        "ancillas",
    ]
    rows = {tuple(l.split()[:2]): l.split() for l in lines[1:]}
    # degree-4 comparison: combined needs 2 registers + 1 swap, plain
    # multi-copy needs 4 registers + 3 swaps
    assert rows[("combined", "4")][2:4] == ["2", "1"]
    assert rows[("multi-copy", "4")][2:4] == ["4", "3"]
    assert rows[("raw", "1")][2:] == ["1", "0", "0", "1", "0"]


def test_cmd_resources_csv_is_pinned(tmp_path):
    out = tmp_path / "resources.csv"
    assert main(
        ["resources", "--qubits", "3", "--max-degree", "6", "--output", str(out)]
    ) == 0
    rows = [
        "kind,degree,registers,ctrl_register_swaps,ctrl_qubit_swaps,depth_factor,ancillas",
        "raw,1,1,0,0,1,0",
        "multi-copy,2,2,1,3,1,1",
        "multi-copy-recycled,2,2,1,3,1,1",
        "state-verification,2,1,0,0,2,1",
        "combined,2,1,0,0,2,1",
        "multi-copy,3,3,2,6,1,1",
        "multi-copy-recycled,3,2,2,6,2,1",
        "multi-copy,4,4,3,9,1,1",
        "multi-copy-recycled,4,2,3,9,3,1",
        "combined,4,2,1,3,2,1",
        "multi-copy,5,5,4,12,1,1",
        "multi-copy-recycled,5,2,4,12,4,1",
        "multi-copy,6,6,5,15,1,1",
        "multi-copy-recycled,6,2,5,15,5,1",
        "combined,6,3,2,6,2,1",
    ]
    assert out.read_bytes() == "".join(f"{row}\r\n" for row in rows).encode()


def test_cmd_resources_csv_output(tmp_path):
    out = tmp_path / "resources.csv"
    assert main(
        ["resources", "--qubits", "3", "--max-degree", "2", "--output", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    kinds = [r["kind"] for r in rows]
    assert kinds == [
        "raw",
        "multi-copy",
        "multi-copy-recycled",
        "state-verification",
        "combined",
    ]
    swap_row = next(r for r in rows if r["kind"] == "multi-copy")
    assert swap_row["ctrl_qubit_swaps"] == "3"  # one per register qubit


# --- exit codes -------------------------------------------------------------


def test_exit_code_usage_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad_cfg = _write(tmp_path, "bad.cfg", "scheme = raw\n")
    assert main(["run", "--config", str(bad_cfg)]) == 2
    _write(tmp_path, "bad.circ", "qubits 1\nFOO 0\n")
    cfg = _write(
        tmp_path, "c.cfg", "scheme = raw\ncircuit = bad.circ\nobservable = Z\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    cfg = _write(
        tmp_path, "m.cfg", "scheme = raw\ncircuit = missing.circ\nobservable = Z\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("shots", ["exact", "1000"])
def test_exit_code_negative_seed_names_the_field(tmp_path, capsys, command, shots):
    # numpy would refuse a negative seed only once shots are drawn, without
    # naming it; an exact run is refused as well
    values = ["--values", "2"] if command == "sweep" else []
    cfg = _base_config(tmp_path, shots=shots, seed="-3")
    assert main([command, "--config", str(cfg), *values]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: seed must be >= 0, got -3\n"
    cfg = _base_config(tmp_path, shots=shots)
    assert main([command, "--config", str(cfg), "--seed", "-3", *values]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("shots", ["exact", "1000"])
def test_exit_code_non_finite_gate_angle(tmp_path, capsys, angle, shots):
    _write(tmp_path, "c.circ", f"qubits 2\nH 0\nRX {angle} 0\nCNOT 0 1\n")
    cfg = _write(
        tmp_path,
        "n.cfg",
        "scheme = combined\ncircuit = c.circ\nobservable = ZZ\nm = 2\n"
        f"shots = {shots}\nnoise.kind = dephasing\nnoise.strength = 0.02\n",
    )
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"c.circ:3: gate RX angle {float(angle)} is not finite" in captured.err


def test_exit_code_circuit_path_names_a_directory(tmp_path, capsys):
    (tmp_path / "circ").mkdir()
    cfg = _base_config(tmp_path, circuit="circ")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_output_path_names_a_directory(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_observable_width_mismatch(tmp_path, capsys):
    _write(tmp_path, "plus.circ", PLUS_CIRCUIT)
    cfg = _write(
        tmp_path, "w.cfg", "scheme = raw\ncircuit = plus.circ\nobservable = ZZ\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_exit_code_vanishing_pipeline_denominator(tmp_path, capsys):
    # dephasing machinery at 0.5 zeroes the ancilla coherence, so the exact
    # pipeline denominator is 0: a clean error, not a division
    cfg = _base_config(
        tmp_path, **{"machinery_noise.kind": "dephasing", "machinery_noise.strength": "0.5"}
    )
    assert main(["run", "--config", str(cfg)]) == 1
    assert "pipeline denominator 0.000e+00 is numerically zero" in capsys.readouterr().err


def test_exit_code_unknown_subcommand(capsys):
    assert main(["polish"]) == 2
    capsys.readouterr()


def test_exit_code_verify_failure():
    assert main(["verify", "--tolerance", "0.0"]) == 1


def test_cli_help_mentions_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for word in ("verify", "run", "sweep", "resources"):
        assert word in out
