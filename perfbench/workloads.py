"""The three workloads: their case lists, one experiment per case, and its checks.

Every case has a fixed shape (register width, gate count and arity mix,
noise kind and strength, M, observable term count, shots and trials);
the workload seed only chooses gate names, targets, angles and the
sampler seed. The cost of a case therefore barely moves with the seed,
and a pass costs about the same on every seed.

An experiment is what a user gets from one ``puremit run``, or from one
operator-level study of a register: a ratio, with its checks.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
import reference as ref
from puremit import channels, circuits, cli, observables, schemes

ONE_QUBIT = ("X", "Y", "Z", "H", "S", "T", "RX", "RY", "RZ")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")
EXACT_ATOL = 1e-10
SAMPLED_SIGMAS = 5.0
SHOTS = 100_000
SCHEMES = ("multi-copy", "state-verification", "combined")


@dataclass(frozen=True)
class Shape:
    """What a case is made of; everything but the seed-drawn details."""

    scheme: str  # "register" for the operator-level study
    n: int
    m: int
    noise: str
    strength: float
    two_qubit_gates: int
    one_qubit_gates: int
    terms: int = 1
    machinery: str = "none"
    machinery_strength: float = 0.0
    shots: int | None = None
    trials: int = 1

    @property
    def label(self) -> str:
        head = f"{self.scheme}-n{self.n}" + ("" if self.scheme == "state-verification" else f"-M{self.m}")
        tail = "" if self.machinery == "none" else f"+mach-{self.machinery}"
        return f"{head}-{self.noise}-T{self.terms}{tail}"

    @property
    def gates(self) -> int:
        return self.two_qubit_gates + self.one_qubit_gates


# The first case of each list is the one the smoke mode runs.
WORKLOADS = {
    "register-study": [
        Shape("register", 6, 2, "dephasing", 0.02, 7, 13, terms=2),
        Shape("register", 4, 3, "depolarizing-global", 0.01, 7, 13, terms=2),
        Shape("register", 5, 2, "depolarizing-local", 0.02, 7, 13, terms=2),
        Shape("register", 6, 2, "amplitude-damping", 0.02, 7, 13, terms=2),
    ],
    "pipeline-exact": [
        Shape("state-verification", 4, 1, "dephasing", 0.02, 7, 13, terms=3,
              machinery="depolarizing-local", machinery_strength=0.01),
        Shape("combined", 2, 2, "depolarizing-global", 0.02, 4, 8, terms=3,
              machinery="depolarizing-local", machinery_strength=0.01),
        Shape("combined", 3, 2, "depolarizing-local", 0.02, 4, 8, terms=1),
        Shape("combined", 4, 2, "amplitude-damping", 0.02, 1, 3, terms=1,
              machinery="depolarizing-global", machinery_strength=0.01),
        Shape("multi-copy", 2, 3, "amplitude-damping", 0.02, 4, 8, terms=3,
              machinery="depolarizing-local", machinery_strength=0.01),
        Shape("multi-copy", 4, 2, "depolarizing-local", 0.02, 4, 8, terms=3,
              machinery="depolarizing-global", machinery_strength=0.01),
    ],
    "sampled-run": [
        Shape("combined", 2, 3, "depolarizing-global", 0.02, 4, 8, terms=1,
              shots=SHOTS, trials=20),
        Shape("combined", 3, 2, "depolarizing-local", 0.02, 4, 8, terms=1, shots=SHOTS),
        Shape("multi-copy", 3, 2, "dephasing", 0.02, 4, 8, terms=3,
              machinery="depolarizing-global", machinery_strength=0.01, shots=SHOTS),
        Shape("multi-copy", 2, 3, "amplitude-damping", 0.02, 4, 8, terms=2,
              machinery="depolarizing-local", machinery_strength=0.01, shots=SHOTS),
    ],
}


def random_gates(rng, shape: Shape):
    """Gates with the shape's fixed arity mix in a seeded order."""
    arities = [2] * shape.two_qubit_gates + [1] * shape.one_qubit_gates
    rng.shuffle(arities)
    gates = []
    for arity in arities:
        names = TWO_QUBIT if arity == 2 else ONE_QUBIT
        name = names[rng.integers(len(names))]
        qubits = tuple(int(q) for q in rng.choice(shape.n, size=arity, replace=False))
        angle = float(rng.uniform(-np.pi, np.pi)) if name in ref.ROTATIONS else None
        gates.append((name, qubits, angle))
    return gates


def pick_terms(psi, n: int, n_terms: int):
    """Full-weight Pauli strings with the largest |<P>_psi|, signed so they add up.

    Full weight keeps the number of controlled Paulis in a pipeline fixed,
    and a large ideal value keeps the global-depolarizing closed form a
    sharp check.
    """
    strings = ["".join(s) for s in product("XYZ", repeat=n)]
    values = ref.full_weight_expectations(psi, n)
    best = np.argsort(-np.abs(values), kind="stable")[:n_terms]
    return tuple((float(np.sign(values[i])) / n_terms, strings[i]) for i in best)


def observable_text(terms) -> str:
    parts = []
    for c, s in terms:
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)!r}*{s}")
    return " ".join(parts).lstrip("+ ")


class Case:
    """One shape with its seeded inputs; ``run`` is the timed experiment."""

    def __init__(self, shape: Shape, rng, workdir: Path, index: int):
        self.shape = shape
        self.label = shape.label
        self.gates = random_gates(rng, shape)
        self.psi = ref.statevector(self.gates, shape.n)
        self.terms = pick_terms(self.psi, shape.n, shape.terms)
        self.expected = None
        if shape.scheme == "register":
            self.circuit = circuits.GateCircuit(
                shape.n, tuple(circuits.Gate(*g) for g in self.gates)
            )
            self.noise = channels.NoiseModel(shape.noise, shape.strength)
            self.observable = observables.PauliObservable(self.terms)
        else:
            self.argv = self._write_inputs(workdir, index, int(rng.integers(2**31)))

    def _write_inputs(self, workdir: Path, index: int, seed: int):
        s = self.shape
        circ = workdir / f"case{index}.circ"
        lines = [f"qubits {s.n}"]
        for name, qubits, angle in self.gates:
            lines.append(" ".join([name] + ([repr(angle)] if angle is not None else [])
                                  + [str(q) for q in qubits]))
        circ.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = workdir / f"case{index}.cfg"
        config.write_text(
            "\n".join([
                f"scheme = {s.scheme}",
                f"circuit = {circ.name}",
                f"observable = {observable_text(self.terms)}",
                f"m = {s.m}",
                f"shots = {'exact' if s.shots is None else s.shots}",
                f"trials = {s.trials}",
                f"seed = {seed}",
                f"noise.kind = {s.noise}",
                f"noise.strength = {s.strength!r}",
                f"machinery_noise.kind = {s.machinery}",
                f"machinery_noise.strength = {s.machinery_strength!r}",
            ]) + "\n",
            encoding="utf-8",
        )
        argv = ["run", "--config", str(config)]
        return argv + ["--exact"] if s.shots is None else argv

    def run(self):
        """One experiment through the program's public interface."""
        if self.shape.scheme == "register":
            m = self.shape.m
            rho = channels.prepare_noisy_state(self.circuit, self.noise)
            rbar = channels.dual_state(self.circuit, self.noise)
            return {
                "rho": rho.matrix,
                "rbar": rbar.matrix,
                "multi-copy": schemes.multicopy_estimate(rho, self.observable, m).ratio,
                "state-verification": schemes.state_verification_estimate(
                    rho, rbar, self.observable
                ).ratio,
                "combined": schemes.combined_estimate(rho, rbar, self.observable, m).ratio,
            }
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"puremit {' '.join(self.argv)} exited with code {code}")
        return buf.getvalue()

    def prepare_reference(self):
        """Expected values from the dense reference; run outside the timed passes."""
        s = self.shape
        obs = ref.observable_matrix(self.terms)
        ideal = float(np.vdot(self.psi, obs @ self.psi).real)
        if s.noise == "depolarizing-global":
            rho = rbar = ref.global_depolarized_state(self.psi, s.gates, s.strength)

            def ratio(scheme):
                degree = {"multi-copy": s.m, "state-verification": 2, "combined": 2 * s.m}
                return ref.global_depolarized_ratio(
                    ideal, s.n, s.gates, s.strength, degree[scheme])
        else:
            rho = ref.noisy_state(self.gates, s.n, s.noise, s.strength)
            rbar = ref.dual_state(self.gates, s.n, s.noise, s.strength)

            def ratio(scheme):
                if scheme == "multi-copy":
                    return ref.multicopy_ratio(rho, obs, s.m)
                return ref.chain_ratio(rho, rbar, obs, 1 if scheme == "state-verification" else s.m)

        if s.scheme == "register":
            self.expected = {"ideal": ideal, "rho": rho, "rbar": rbar}
            self.expected.update({scheme: ratio(scheme) for scheme in SCHEMES})
        else:
            self.expected = {"ideal": ideal, "ratio": ratio(s.scheme)}

    def check(self, out) -> list[str]:
        """Problems found in one experiment's output; empty when it is correct."""
        exp = self.expected
        problems = []

        def near(what, got, want, tol=EXACT_ATOL):
            err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
            if not err <= tol:
                problems.append(f"{self.label}: {what} off by {err:.3e} (tolerance {tol:.1e})")

        if self.shape.scheme == "register":
            for key in ("rho", "rbar") + SCHEMES:
                near(key, out[key], exp[key])
            return problems
        report = json.loads(out)["report"]
        near("ideal_value", report["ideal_value"], exp["ideal"])
        # with machinery noise none or depolarizing, the circuit-level
        # ratio equals the operator-level one exactly
        near("exact_ratio", report["exact_ratio"], exp["ratio"])
        if self.shape.shots is None:
            near("ratio", report["ratio"], exp["ratio"])
            return problems
        near("sampled ratio", report["ratio"], exp["ratio"],
             SAMPLED_SIGMAS * report["ratio_stderr"])
        want_shots = self.shape.shots * self.shape.trials
        if report["shots_used"] != want_shots:
            problems.append(f"{self.label}: shots_used {report['shots_used']} != {want_shots}")
        return problems


def build_cases(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Case]:
    """Seeded inputs of a workload; config and circuit files go to ``workdir``."""
    shapes = WORKLOADS[workload][:1] if smoke else WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    return [Case(shape, rng, workdir, i) for i, shape in enumerate(shapes)]
