"""Acceptance gate: one test per headline claim, one printed line each.

Each test prints a PASS/FAIL line to the real stdout so the gate summary
is visible even under pytest's capture. Tolerances are pinned; do not
loosen them to make a failing criterion pass.
"""

import json
import re
import time

import numpy as np
import pytest

from puremit.channels import NO_NOISE, NoiseModel, dual_state, prepare_noisy_state
from puremit.circuits import Gate, GateCircuit, circuit_unitary, random_circuit
from puremit.cli import main
from puremit.linalg import (
    kron_power,
    pure_fidelity,
    random_density,
    random_hermitian,
    random_unitary,
)
from puremit.measurement import (
    antisymmetric_product_measure,
    hadamard_test,
    product_expectation,
    symmetric_product_measure,
)
from puremit.observables import PauliObservable, parse_observable
from puremit.purification import purified_infidelity_bound, purified_state
from puremit.reference import permutation_contraction, verified_composite_contraction
from puremit.resources import resource_profile
from puremit.sampling import ShotConfig, scheme_shot_experiment
from puremit.schemes import build_pipeline

PLUS = GateCircuit(1, (Gate("H", (0,)),))

_DISABLE_CAPTURE = None


@pytest.fixture(autouse=True)
def _gate_summary_channel(capsys):
    # route the per-criterion lines past pytest's capture so the gate
    # summary is always visible
    global _DISABLE_CAPTURE
    _DISABLE_CAPTURE = capsys.disabled
    yield
    _DISABLE_CAPTURE = None


def _criterion(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    line = f"[acceptance {index:2d}/12] {name:<58} {status}{tail}"
    if _DISABLE_CAPTURE is not None:
        with _DISABLE_CAPTURE():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_c01_cyclic_contraction_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        rho = random_density(rng, d).matrix
        obs = random_hermitian(rng, d)
        got = permutation_contraction(obs, [rho] * m)
        want = complex(np.trace(obs @ np.linalg.matrix_power(rho, m)))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _criterion(
        1,
        "cyclic permutation contraction equals matrix-power trace",
        ok,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_c02_verified_composite_contraction():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        rho = random_density(rng, d).matrix
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rbar = z @ z.conj().T / d  # PSD, deliberately unnormalized
        obs = random_hermitian(rng, d)
        want = complex(np.trace(obs @ np.linalg.matrix_power(rho @ rbar, m)))
        got = verified_composite_contraction(kron_power(rbar, m), obs, rho, m)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _criterion(
        2,
        "verified composite contraction equals the operator chain",
        ok,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_c03_frozen_purified_infidelity():
    # one gate, global depolarizing 0.2: rho = 0.8 rho0 + 0.2 I/4, so the
    # degree-2 infidelity is 3*(0.05)^2 / (0.85^2 + 3*0.05^2)
    circuit = GateCircuit(2, (Gate("H", (0,)),))
    rho = prepare_noisy_state(circuit, NoiseModel("depolarizing-global", 0.2))
    ideal = circuit_unitary(circuit)[:, 0]
    infidelity = 1.0 - pure_fidelity(ideal, purified_state(rho, 2))
    expected = 0.010273972602739726
    residual = abs(infidelity - expected)
    ok = residual <= 1e-9
    _criterion(
        3,
        "degree-2 purified infidelity matches the frozen value",
        ok,
        f"got {infidelity:.15f}, residual {residual:.2e}",
    )
    assert residual <= 1e-9


def test_c04_purified_fidelity_formula_and_bound():
    rng = np.random.default_rng(404)
    worst_formula = 0.0
    worst_excess = -1.0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(0.01, 0.4))
        u = random_unitary(rng, d)
        residual_weights = p * rng.dirichlet(np.ones(d - 1))
        weights = np.concatenate(([1.0 - p], residual_weights))
        rho = (u * weights) @ u.conj().T
        prev = 0.0
        for order in range(1, 5):
            fid = pure_fidelity(u[:, 0], purified_state(rho, order))
            top = (1.0 - p) ** order
            expected = top / (top + float((residual_weights**order).sum()))
            worst_formula = max(worst_formula, abs(fid - expected))
            bound = purified_infidelity_bound(p, order)
            worst_excess = max(worst_excess, (1.0 - fid) - bound)
            assert fid >= prev - 1e-12  # powering never hurts
            prev = fid
    ok = worst_formula <= 1e-9 and worst_excess <= 1e-9
    _criterion(
        4,
        "purified fidelity follows the closed form and obeys the bound",
        ok,
        f"formula residual {worst_formula:.2e}, bound excess {worst_excess:.2e}",
    )
    assert worst_formula <= 1e-9
    assert worst_excess <= 1e-9


def test_c05_combined_resource_savings():
    combined = resource_profile("combined", 4, 1)
    plain = resource_profile("multi-copy", 4, 1)
    checks = [
        combined.registers == 2,
        combined.control_register_swaps == 1,
        combined.depth_factor == 2,
        combined.ancillas == 1,
        plain.registers == 4,
        plain.control_register_swaps == 3,
        plain.depth_factor == 1,
    ]
    for m in range(1, 5):
        degree = 2 * m
        checks.append(resource_profile("combined", degree, 3).registers == m)
        checks.append(resource_profile("multi-copy", degree, 3).registers == degree)
        checks.append(
            resource_profile("combined", degree, 3).control_register_swaps == m - 1
        )
    sv = resource_profile("state-verification", 2, 3)
    checks += [sv.registers == 1, sv.control_register_swaps == 0, sv.depth_factor == 2]
    ok = all(checks)
    _criterion(
        5,
        "combined scheme halves registers and swaps at equal degree",
        ok,
        "deg 4: 2 regs/1 swap vs 4 regs/3 swaps",
    )
    assert ok


def test_c06_symmetric_measure_is_anticommutator_half():
    rng = np.random.default_rng(606)
    letters = "IXYZ"
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join(letters[rng.integers(4)] for _ in range(n))
        g = PauliObservable.single(string)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        gm = g.matrix()
        got = symmetric_product_measure(s, g, rho)
        want = complex(np.trace((s @ gm + gm @ s) / 2.0 @ rho)).real
        worst = max(worst, abs(got - want))
    # anticommuting pair: the symmetric half must vanish identically
    anti = abs(
        symmetric_product_measure(
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            PauliObservable.single("Z"),
            random_density(rng, 2).matrix,
        )
    )
    ok = worst <= 1e-12 and anti <= 1e-12
    _criterion(
        6,
        "projective split recovers the anticommutator half",
        ok,
        f"max residual {worst:.2e}, anticommuting {anti:.2e}",
    )
    assert worst <= 1e-12
    assert anti <= 1e-12


def test_c07_product_reconstruction():
    rng = np.random.default_rng(707)
    letters = "IXYZ"
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        d = 2**n
        string = "".join(letters[rng.integers(4)] for _ in range(n))
        g = PauliObservable.single(string)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        got = product_expectation(s, g, rho)
        want = complex(np.trace(s @ g.matrix() @ rho))
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    _criterion(
        7,
        "measured halves reassemble the full operator product",
        ok,
        f"max residual {worst:.2e}",
    )
    assert worst <= 1e-10


def test_c08_hadamard_test_reconstruction():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(200):
        d = int(2 ** rng.integers(1, 4))
        u = random_unitary(rng, d)
        s = random_hermitian(rng, d)
        rho = random_density(rng, d).matrix
        re = hadamard_test(u, s, rho, "real")
        im = hadamard_test(u, s, rho, "imag")
        worst = max(worst, abs(complex(re, im) - complex(np.trace(s @ u @ rho))))
    ok = worst <= 1e-10
    _criterion(
        8,
        "ancilla test reads both parts of the overlap trace",
        ok,
        f"max residual {worst:.2e}",
    )
    assert worst <= 1e-10


def test_c09_noiseless_schemes_hit_ideal():
    rng = np.random.default_rng(909)
    observable = parse_observable("0.7*ZI + 0.3*XX")
    combos = [
        ("raw", 1),
        ("multi-copy", 2),
        ("multi-copy", 3),
        ("multi-copy-recycled", 2),
        ("state-verification", 1),
        ("combined", 1),
        ("combined", 2),
    ]
    worst = 0.0
    for _ in range(20):
        circuit = random_circuit(rng, 2, 5)
        for kind, copies in combos:
            pipe = build_pipeline(kind, circuit, NO_NOISE, observable, n_copies=copies)
            report = pipe.exact_report()
            worst = max(worst, abs(report.ratio - report.ideal_value))
    ok = worst <= 1e-10
    _criterion(
        9,
        "every scheme reproduces the ideal value without noise",
        ok,
        f"20 circuits x {len(combos)} schemes, max bias {worst:.2e}",
    )
    assert worst <= 1e-10


def _global_depolarizing_estimate(q: float, degree: int) -> float:
    # eigenvalues of (1-q) |psi><psi| + q I/2: lam0 = 1 - q/2, lam1 = q/2;
    # the degree-D ratio is (lam0^D z0 + lam1^D (TrO - z0)) / (lam0^D + lam1^D)
    # with z0 = <psi|X|psi> = 1 and TrO = 0 for the plus state and X
    lam0 = 1.0 - q / 2.0
    lam1 = q / 2.0
    return (lam0**degree - lam1**degree) / (lam0**degree + lam1**degree)


def test_c10_global_noise_bias_ordering():
    observable = parse_observable("X")
    worst = 0.0
    ordered = True
    for p in (0.05, 0.1, 0.2):
        noise = NoiseModel("depolarizing-global", p)
        values = {}
        for kind, copies, degree in (
            ("raw", 1, 1),
            ("multi-copy", 2, 2),
            ("state-verification", 1, 2),
            ("combined", 2, 4),
        ):
            pipe = build_pipeline(kind, PLUS, noise, observable, n_copies=copies)
            ratio = pipe.exact_report().ratio
            closed = _global_depolarizing_estimate(p, degree)
            worst = max(worst, abs(ratio - closed))
            values[kind] = abs(ratio - 1.0)
        ordered = ordered and (
            values["raw"] > values["state-verification"] > values["combined"]
        )
        ordered = ordered and abs(
            values["state-verification"] - values["multi-copy"]
        ) <= 1e-12
    ok = worst <= 1e-12 and ordered
    _criterion(
        10,
        "bias under global noise matches the eigenvalue closed form",
        ok,
        f"max residual {worst:.2e}, raw > verified > combined: {ordered}",
    )
    assert worst <= 1e-12
    assert ordered


def test_c11_sampling_calibration_and_scaling():
    observable = parse_observable("X")
    noise = NoiseModel("depolarizing-global", 0.2)
    pipe = build_pipeline("multi-copy", PLUS, noise, observable, n_copies=2)
    exact = pipe.exact_report().ratio
    hits = 0
    errs_full = []
    errs_quarter = []
    for seed in range(100):
        report = scheme_shot_experiment(pipe, ShotConfig(shots=100_000, seed=seed))
        if abs(report.ratio - exact) <= 5.0 * report.ratio_stderr:
            hits += 1
        errs_full.append(report.ratio_stderr)
        small = scheme_shot_experiment(pipe, ShotConfig(shots=25_000, seed=seed))
        errs_quarter.append(small.ratio_stderr)
    scale = float(np.mean(errs_full) / np.mean(errs_quarter))
    ok = hits >= 99 and 0.4 <= scale <= 0.6
    _criterion(
        11,
        "sampled ratios are calibrated and shrink as one over sqrt shots",
        ok,
        f"{hits}/100 within 5 stderr, quarter-shot stderr ratio {scale:.3f}",
    )
    assert hits >= 99
    assert 0.4 <= scale <= 0.6


def test_c12_cli_reports_reproducible(tmp_path):
    (tmp_path / "plus.circ").write_text("qubits 1\nH 0\n", encoding="utf-8")
    config = tmp_path / "exp.cfg"
    config.write_text(
        "scheme = multi-copy\ncircuit = plus.circ\nobservable = X\nm = 2\n"
        "shots = 4000\nseed = 17\nnoise.kind = depolarizing-global\n"
        "noise.strength = 0.2\n",
        encoding="utf-8",
    )
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["run", "--config", str(config), "--output", str(out)])
        assert code == 0
        texts.append(out.read_text())
    stripped = [
        re.sub(r'^\s*"wall_time_s": [^,\n]+,?$', "", t, flags=re.M) for t in texts
    ]
    payload = json.loads(texts[0])
    ok = stripped[0] == stripped[1] and "wall_time_s" in payload
    _criterion(
        12,
        "CLI reports are byte-stable apart from the wall-time field",
        ok,
        f"sampled ratio {payload['report']['ratio']:.6f}",
    )
    assert ok
