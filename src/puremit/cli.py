"""Command line interface.

Subcommands:

* ``verify``: seeded self-checks of the core identities and of a
  pipeline's outcome probabilities against a forward composite, one
  PASS/FAIL line each. Exit 0 when every residual is below tolerance, 1
  otherwise.
* ``run``: execute one configured experiment, exact or sampled, and emit
  a JSON report.
* ``sweep``: repeat a run over the values of one config key, any key
  ``run`` reads from a config file; emits RFC 4180 CSV.
* ``resources``: print the resource accounting table for the schemes.

Exit codes: 0 success, 1 failed checks or unstable estimates, 2 usage,
configuration, or input format errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channels import NOISE_KINDS, NoiseModel, dual_state, prepare_noisy_state
from .circuits import inverse_circuit, load_circuit, random_circuit
from .config import (
    ConfigError,
    ExperimentConfig,
    format_config,
    load_config,
    parse_config,
    set_fields,
)
from .linalg import (
    DensityOperator,
    kron_power,
    random_density,
    random_hermitian,
    random_unitary,
)
from .measurement import (
    antisymmetric_product_measure,
    hadamard_test,
    product_expectation,
    symmetric_product_measure,
)
from .observables import PauliObservable, parse_observable
from .reports import EstimateReport
from .reference import (
    adjoint_channel,
    apply_channel,
    forward_outcomes,
    kraus_sum,
    noisy_circuit_channel,
    permutation_contraction,
    verified_composite_contraction,
)
from .resources import resource_profile
from .sampling import ShotConfig, UnstableDenominatorError, scheme_shot_experiment
from .schemes import SchemePipeline, VanishingDenominatorError, build_pipeline


def _verify_checks(seed: int):
    """Yield (name, max_residual) for the identity self-checks."""
    rng = np.random.default_rng(seed)

    res = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        if d**m > 256:
            continue
        rho = random_density(rng, d).matrix
        obs = random_hermitian(rng, d)
        got = permutation_contraction(obs, [rho] * m)
        power = np.linalg.matrix_power(rho, m)
        want = complex(np.trace(obs @ power))
        res = max(res, abs(got - want))
    yield "cyclic-contraction", res

    res = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        if d**m > 256:
            continue
        rho = random_density(rng, d).matrix
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rbar = z @ z.conj().T / d  # PSD, deliberately not normalized
        obs = random_hermitian(rng, d)
        chain = np.linalg.matrix_power(rho @ rbar, m)
        want = complex(np.trace(obs @ chain))
        got = verified_composite_contraction(kron_power(rbar, m), obs, rho, m)
        res = max(res, abs(got - want))
    yield "verified-contraction", res

    res = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 3))
        circ = random_circuit(rng, n, 4)
        d = circ.dim
        noise = NoiseModel("depolarizing-local", 0.05)
        ch = noisy_circuit_channel(circ, noise)
        adj = adjoint_channel(ch)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        lhs = np.trace(kraus_sum(adj, a) @ b)
        rhs = np.trace(a @ kraus_sum(ch, b))
        res = max(res, abs(complex(lhs - rhs)))
    yield "adjoint-pairing", res

    res_state = 0.0
    res_dual = 0.0
    for kind in NOISE_KINDS * 2:
        # n = 3 and 8 gates reach a one-qubit step carried past a disjoint gate
        n = int(rng.integers(1, 4))
        circ = random_circuit(rng, n, 8)
        noise = NoiseModel(kind, 0.1)
        zero = DensityOperator.computational_zero(n).matrix
        rho = prepare_noisy_state(circ, noise).matrix
        want = apply_channel(noisy_circuit_channel(circ, noise), zero).matrix
        res_state = max(res_state, float(np.max(np.abs(rho - want))))
        rbar = dual_state(circ, noise).matrix
        ch = adjoint_channel(noisy_circuit_channel(inverse_circuit(circ), noise))
        want = kraus_sum(ch, zero)
        res_dual = max(res_dual, float(np.max(np.abs(rbar - want))))
    yield "noisy-state-reconstruction", res_state
    yield "dual-state-reconstruction", res_dual

    res_sym = 0.0
    res_rot = 0.0
    res_prod = 0.0
    letters = "IXYZ"
    for _ in range(25):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join(letters[rng.integers(4)] for _ in range(n))
        g = PauliObservable.single(string)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        gm = g.matrix()
        sym = symmetric_product_measure(s, g, rho)
        want_sym = complex(np.trace((s @ gm + gm @ s) / 2.0 @ rho))
        res_sym = max(res_sym, abs(sym - want_sym))
        anti = antisymmetric_product_measure(s, g, rho)
        want_anti = 1j * complex(np.trace((s @ gm - gm @ s) / 2.0 @ rho))
        res_rot = max(res_rot, abs(anti - want_anti))
        prod = product_expectation(s, g, rho)
        res_prod = max(res_prod, abs(prod - complex(np.trace(s @ gm @ rho))))
    yield "projective-split", res_sym
    yield "rotation-split", res_rot
    yield "product-reconstruction", res_prod

    res = 0.0
    for _ in range(25):
        d = int(2 ** rng.integers(1, 4))
        u = random_unitary(rng, d)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        re = hadamard_test(u, s, rho, "real")
        im = hadamard_test(u, s, rho, "imag")
        res = max(res, abs(complex(re, im) - complex(np.trace(s @ u @ rho))))
    yield "hadamard-test", res

    # every unit's outcome probabilities against a forward evolution of
    # the composite, nq = 7 at most, under every machinery kind, with the
    # inverse circuits under the state's noise and under other noise
    res = 0.0
    circ = random_circuit(rng, 2, 6)
    noise = NoiseModel("amplitude-damping", 0.1)
    obs = parse_observable("0.6*ZY + 0.4*XI")
    for kind, copies in (("multi-copy", 3), ("state-verification", 1), ("combined", 3)):
        for machinery in (NoiseModel(k, 0.05) for k in NOISE_KINDS):
            for dual in (None, NoiseModel("dephasing", 0.07)):
                pipe = build_pipeline(kind, circ, noise, obs, copies, machinery, dual)
                want = forward_outcomes(kind, circ, noise, obs, copies, machinery, dual)
                for unit, probs in zip((*pipe.numerator_terms, pipe.denominator), want):
                    res = max(res, float(np.max(np.abs(unit.state - probs))))
    yield "pipeline-outcomes", res


def cmd_verify(args) -> int:
    tol = args.tolerance
    failed = 0
    for name, residual in _verify_checks(args.seed):
        ok = residual <= tol
        if not ok:
            failed += 1
        print(f"{name:<28} max residual {residual:.3e}  {'PASS' if ok else 'FAIL'}")
    print(f"{'all checks passed' if failed == 0 else f'{failed} check(s) failed'}")
    return 0 if failed == 0 else 1


def _resolve_path(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _effective(scheme: str, copies: int):
    """Degree-1 multi-copy runs are plain raw estimation."""
    if scheme in ("multi-copy", "multi-copy-recycled") and copies < 2:
        return "raw", 1
    return scheme, copies


def _build_from_config(config: ExperimentConfig, config_dir: Path):
    circuit = load_circuit(_resolve_path(config_dir, config.circuit))
    observable = parse_observable(config.observable)
    scheme, copies = _effective(config.scheme, config.m)
    return build_pipeline(
        scheme,
        circuit,
        config.noise,
        observable,
        n_copies=copies,
        machinery_noise=config.machinery_noise,
        dual_noise=config.dual_noise,
    )


def _run_config(
    config: ExperimentConfig, config_dir: Path, exact: bool
) -> tuple[SchemePipeline, EstimateReport]:
    """The config's pipeline, built once, and its exact or sampled report."""
    pipeline = _build_from_config(config, config_dir)
    if exact or config.shots is None:
        return pipeline, pipeline.exact_report()
    shot_config = ShotConfig(shots=config.shots, trials=config.trials, seed=config.seed)
    return pipeline, scheme_shot_experiment(pipeline, shot_config)


def _config_dict(config: ExperimentConfig) -> dict:
    """The set fields (``set_fields``) but the output path, a noise model
    as {kind, strength}."""
    return {
        name: {"kind": value.kind, "strength": value.strength}
        if isinstance(value, NoiseModel) else value
        for name, value in set_fields(config)
        if name != "output"
    }


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "shots", None) is not None:
        config = replace(config, shots=args.shots)
    return config


def cmd_run(args) -> int:
    config = load_config(args.config)
    config = _apply_overrides(config, args)
    started = time.perf_counter()
    _, report = _run_config(config, Path(args.config).parent, args.exact)
    elapsed = time.perf_counter() - started
    payload = {
        "config": _config_dict(config),
        "report": report.as_dict(),
        "wall_time_s": elapsed,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _emit(text, args.output if args.output is not None else config.output)
    return 0


# a resource profile's fields after its kind, in field order
_PROFILE_COLUMNS = [
    "degree",
    "registers",
    "ctrl_register_swaps",
    "ctrl_qubit_swaps",
    "depth_factor",
    "ancillas",
]

_SWEEP_COLUMNS = [
    "parameter",
    "value",
    "scheme",
    *_PROFILE_COLUMNS,
    "ratio",
    "ratio_stderr",
    "exact_ratio",
    "ideal_value",
    "exact_bias",
    "shots_used",
]


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    config = _apply_overrides(config, args)
    values_text = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values_text:
        raise ConfigError("sweep needs at least one value")
    # a point is the config with the swept key's line replaced, parsed again:
    # any key sweeps, and a bad key or value gets the parser's own message
    key = args.parameter.strip().lower()
    kept = [line for line in format_config(config).splitlines() if not line.startswith(f"{key} = ")]
    points = []
    for text in values_text:
        line = f"{args.parameter} = {text}"
        points.append(parse_config("\n".join([line, *kept]), source=f"{args.config} with {line}"))
    config_dir = Path(args.config).parent
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SWEEP_COLUMNS)
    for text, point in zip(values_text, points):
        pipeline, report = _run_config(point, config_dir, args.exact)
        # an exact report draws no shots; a sampled point reads the exact one too
        exact = report if report.shots_used == 0 else pipeline.exact_report()
        writer.writerow(
            [
                args.parameter,
                text,
                # the profile's fields in field order, its kind the report's
                *report.resources.as_dict().values(),
                repr(report.ratio),
                repr(report.ratio_stderr),
                repr(exact.ratio),
                repr(exact.ideal_value),
                repr(abs(exact.ratio - exact.ideal_value)),
                report.shots_used,
            ]
        )
    _emit(buf.getvalue(), args.output if args.output is not None else config.output)
    return 0


def cmd_resources(args) -> int:
    if args.max_degree < 1:
        raise ConfigError(f"max degree must be >= 1, got {args.max_degree}")
    rows = [resource_profile("raw", 1, args.qubits)]
    for degree in range(2, args.max_degree + 1):
        rows.append(resource_profile("multi-copy", degree, args.qubits))
        rows.append(resource_profile("multi-copy-recycled", degree, args.qubits))
        if degree == 2:
            rows.append(resource_profile("state-verification", 2, args.qubits))
        if degree % 2 == 0:
            rows.append(resource_profile("combined", degree, args.qubits))
    header = ["kind", *_PROFILE_COLUMNS]
    # as_dict lists the profile's fields in field order, that of the columns
    cells = [[str(value) for value in r.as_dict().values()] for r in rows]
    if args.output is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *cells])
        _emit(buf.getvalue(), args.output)
        return 0
    widths = [22, 7, 10, 20, 17, 13, 9]
    for row in [header, *cells]:
        print("".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puremit",
        description="Density-matrix simulation of purification-based error mitigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the built-in identity self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run one configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--shots", type=int, default=None, help="override the shot budget")
    p.add_argument("--exact", action="store_true", help="force exact evaluation")
    p.add_argument("--output", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="repeat a run over the values of one config key")
    p.add_argument("--config", required=True)
    p.add_argument("--parameter", default="M", help="the config key to sweep (default M)")
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shots", type=int, default=None, help="override the shot budget")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--output", default=None, help="write the CSV table here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resources", help="print the scheme resource table")
    p.add_argument("--qubits", type=int, default=1, help="register width")
    p.add_argument("--max-degree", type=int, default=4, help="largest degree to list")
    p.add_argument("--seed", type=int, default=None, help="accepted for uniformity")
    p.add_argument("--output", default=None, help="write CSV instead of a table")
    p.set_defaults(func=cmd_resources)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UnstableDenominatorError, VanishingDenominatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ConfigError and the circuit and observable format errors among
        # them, and a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
