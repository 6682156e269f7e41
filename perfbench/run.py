"""Benchmark of puremit: one workload per run, in whole passes over its case list.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload register-study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run sets up its workload (imports and seeded inputs), computes the
expected values with the benchmark's own dense reference, runs one
warm-up pass, then runs whole passes over the case list until
``--seconds`` have gone by; a pass is never cut short. Each experiment
starts when the previous one ends (a closed loop with one client). Every
output is checked outside the timed sections. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.

``--smoke`` runs every workload on its first case only, once untraced and
once traced, and checks that each output carries every metric named in
BENCHMARK.json; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread, fixed before numpy is first imported: a single-threaded
# process is the steadiest load on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Fixed glibc malloc thresholds: without them glibc moves its mmap
# threshold with the allocation history, and peak RSS of the same work
# wanders by several percent from run to run.
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 20)  # M_TRIM_THRESHOLD
except OSError:
    pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
MAX_REPORTED_PROBLEMS = 10


def _workload_names():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import the program and build the seeded inputs; returns (cases, seconds)."""
    started = perf_counter()
    import workloads  # imports numpy and puremit

    cases = workloads.build_cases(workload, seed, workdir, smoke)
    return cases, perf_counter() - started


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, which pays every import again."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(cases, seconds: float, calibration):
    """Whole passes, at least one, until ``seconds`` have gone by.

    The calibration kernel runs right before each experiment, outside
    the experiment's timer.
    """
    pass_times, case_times, problems = [], {c.label: [] for c in cases}, []
    attempted = failed = 0
    started = perf_counter()
    while True:
        pass_time = 0.0
        for case in cases:
            attempted += 1
            calibration.measure()
            t0 = perf_counter()
            try:
                out = case.run()
            except Exception:
                out = None
                failed += 1
                traceback.print_exc()
            dt = perf_counter() - t0
            pass_time += dt
            case_times[case.label].append(dt)
            if out is not None:
                problems += case.check(out)
        pass_times.append(pass_time)
        if perf_counter() - started >= seconds:
            break
    return pass_times, case_times, attempted, failed, problems


def run_workload(args) -> int:
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        cases, own_setup = setup(args.workload, args.seed, workdir, args.smoke)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        if not (args.smoke or args.trace):
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        for case in cases:
            case.prepare_reference()
        from calibration import Calibration
        from tracing import Tracer

        if not args.smoke:
            run_passes(cases, 0.0, Calibration())  # warm-up, not reported
        calibration = Calibration()
        tracer = Tracer() if args.trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            passes, case_times, attempted, failed, problems = run_passes(
                cases, args.seconds, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = attempted - failed
    busy = sum(passes)
    cost = calibration.cost(busy, attempted)
    if tracer is not None:
        metrics = tracer.layer_metrics(done, cost)
    else:
        metrics = {
            "experiment_cost": (cost, "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)

    from puremit import _accel

    raw = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "backend": _accel.backend(),
        "setup_samples_s": setups, "pass_times_s": passes, "case_times_s": case_times,
        "calibration_times_s": calibration.times, "experiments_per_s": done / busy,
        "problems": problems, "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        raw["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}: {len(passes)} passes x {len(cases)} cases, "
          f"{attempted} attempted, {failed} failed, {len(problems)} check failures, "
          f"backend {_accel.backend()}, BLAS threads {BLAS_THREADS}, "
          f"{done / busy:.4g} experiments per second of wall time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke() -> int:
    """Run every workload on one case, traced and untraced, and check each output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def report(what: str, problems: list[str]):
        nonlocal failures
        failures += bool(problems)
        print(f"{what:<36} {'FAIL: ' + '; '.join(problems) if problems else 'PASS'}")

    for workload in _workload_names():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            )
            result = _last_json(proc.stdout)
            problems = []
            if proc.returncode != 0 or result is None:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("correctness checks failed")
                if not result.get("attempted", 0) >= 1 or result.get("failed") != 0:
                    problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if got != want:
                    problems.append(f"metrics {got} != {want}")
            report(f"{workload} --trace {trace}", problems)

    # where the program is missing, a run must fail without printing a result
    bare = OUT / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", _workload_names()[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=bare,
        )
        problems = []
        if proc.returncode == 0:
            problems.append("exit code 0")
        if _last_json(proc.stdout) is not None:
            problems.append("printed a result")
        report("without the program", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: all checks passed" if failures == 0 else f"smoke: {failures} check(s) failed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="without --workload: test the benchmark on one case per workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "puremit" / "__init__.py").is_file():
        print(f"error: no puremit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    if args.workload not in _workload_names():
        parser.error(f"unknown workload {args.workload!r}; choose from {_workload_names()}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
