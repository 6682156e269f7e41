"""Spans around the program's public functions, recorded from outside it.

``Tracer.installed()`` replaces the module attributes through which
callers reach each traced function (``schemes.prepare_noisy_state``,
``cli.build_pipeline``, ``sampling.hermitian_eig`` ...) with wrappers that
record one span per call: name, start, end and parent. The originals are
put back when the block ends. A span's self time is its duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import numpy as np
from puremit import channels, cli, sampling, schemes

MB = 2**20


def _pipeline_bytes(pipe) -> int:
    """Bytes of the distinct arrays a built pipeline holds."""
    arrays = {}
    for term in (*pipe.numerator_terms, pipe.denominator):
        for arr in (term.state, term.observable):
            if isinstance(arr, np.ndarray):
                arrays[id(arr)] = arr.nbytes
    return sum(arrays.values())


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.pipeline_bytes = 0
        self.shots = 0

    def _wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_pipeline(self, pipe):
        self.pipeline_bytes = max(self.pipeline_bytes, _pipeline_bytes(pipe))

    def _on_sampled(self, report):
        self.shots += report.shots_used

    @contextlib.contextmanager
    def installed(self):
        # (span name, attribute, owners that callers read it from, result hook)
        points = [
            ("channels.prepare_noisy_state", "prepare_noisy_state", (channels, schemes), None),
            ("channels.dual_state", "dual_state", (channels, schemes), None),
            ("schemes.estimators", "multicopy_estimate", (schemes,), None),
            ("schemes.estimators", "state_verification_estimate", (schemes,), None),
            ("schemes.estimators", "combined_estimate", (schemes,), None),
            ("schemes.build_pipeline", "build_pipeline", (schemes, cli), self._on_pipeline),
            ("schemes.exact_report", "exact_report", (schemes.SchemePipeline,), None),
            ("sampling.scheme_shot_experiment", "scheme_shot_experiment",
             (sampling, cli), self._on_sampled),
            ("linalg.hermitian_eig", "hermitian_eig", (sampling,), None),
            ("cli.main", "main", (cli,), None),
        ]
        saved = []
        try:
            for name, attr, owners, hook in points:
                wrapper = self._wrap(name, getattr(owners[0], attr), hook)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, experiments: int, cost: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; seconds are per experiment.

        ``cost`` is the traced run's ``experiment_cost``.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - covered[index]
        shot_seconds = total["sampling.scheme_shot_experiment"]
        per = 1.0 / max(experiments, 1)
        return {
            "channels.prepare_noisy_state.s": (total["channels.prepare_noisy_state"] * per, "s"),
            "channels.dual_state.s": (total["channels.dual_state"] * per, "s"),
            "schemes.estimators.s": (total["schemes.estimators"] * per, "s"),
            "schemes.build_pipeline.self_s": (self_time["schemes.build_pipeline"] * per, "s"),
            "schemes.pipeline_mb": (self.pipeline_bytes / MB, "MB"),
            "schemes.exact_report.s": (total["schemes.exact_report"] * per, "s"),
            "sampling.scheme_shot_experiment.self_s": (
                self_time["sampling.scheme_shot_experiment"] * per, "s"),
            "sampling.shots_per_s": (self.shots / shot_seconds if shot_seconds else 0.0, "1/s"),
            "linalg.hermitian_eig.s": (total["linalg.hermitian_eig"] * per, "s"),
            "linalg.hermitian_eig.calls": (calls["linalg.hermitian_eig"] * per, "count"),
            "cli.main.self_s": (self_time["cli.main"] * per, "s"),
            "trace.experiment_cost": (cost, "cal"),
        }
