"""Both shot-binning flavours must agree bit-identically."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from puremit import _accel


def test_bin_outcomes_matches_searchsorted():
    rng = np.random.default_rng(7)
    probs = np.array([0.1, 0.0, 0.4, 0.5])
    cum = np.cumsum(probs)
    draws = rng.uniform(size=1000)
    counts = _accel.bin_outcomes_numpy(cum, draws)
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
    counts = _accel.bin_outcomes_numpy(cum, draws)
    assert counts.tolist() == [1, 1, 1]


@pytest.mark.skipif(not _accel.HAS_NUMBA, reason="numba unavailable")
def test_bin_outcomes_flavours_bit_identical():
    rng = np.random.default_rng(8)
    for n in (1, 2, 17):
        probs = rng.uniform(size=n)
        cum = np.cumsum(probs / probs.sum())
        draws = rng.uniform(size=5000)
        a = _accel.bin_outcomes_numpy(cum, draws)
        b = _accel.bin_outcomes_numba(cum, draws)
        assert np.array_equal(a, b)


def test_backend_name_matches_flag():
    assert _accel.backend() in ("numba", "numpy")
    assert _accel.backend() == ("numba" if _accel.NUMBA_ENABLED else "numpy")


def test_env_flag_forces_numpy_path():
    # the child must import the same puremit, installed or not
    src = str(Path(_accel.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PUREMIT_NUMBA="0", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "from puremit._accel import backend; print(backend())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"
