"""Shot binning, in a numba flavour and a pure-numpy flavour.

The sampler bins uniform draws into Born-rule outcome counts once per
shot batch. The kernel is implemented twice with identical semantics.
The numba path is used when numba imports cleanly and the environment
variable ``PUREMIT_NUMBA`` is unset or truthy; set ``PUREMIT_NUMBA=0`` to
force the numpy path. The counts are bit-identical across the two paths.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAS_NUMBA = False


def _flag_enabled() -> bool:
    val = os.environ.get("PUREMIT_NUMBA", "1").strip().lower()
    return val not in ("0", "false", "off", "no")


NUMBA_ENABLED = HAS_NUMBA and _flag_enabled()


def bin_outcomes_numpy(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Count draws per outcome given cumulative probabilities ``cum``.

    ``cum`` is ascending with last entry ~1; draw u lands in the first
    bin whose cumulative weight exceeds it.  Draws beyond cum[-1]
    (possible at rounding level) are folded into the last bin.
    """
    idx = np.searchsorted(cum, draws, side="right")
    idx = np.minimum(idx, cum.shape[0] - 1)
    return np.bincount(idx, minlength=cum.shape[0]).astype(np.int64)


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _bin_outcomes_numba(cum, draws):  # pragma: no cover - exercised via dispatch
        n = cum.shape[0]
        counts = np.zeros(n, dtype=np.int64)
        for i in range(draws.shape[0]):
            u = draws[i]
            # binary search matching searchsorted(side="right")
            lo = 0
            hi = n
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid] <= u:
                    lo = mid + 1
                else:
                    hi = mid
            if lo > n - 1:
                lo = n - 1
            counts[lo] += 1
        return counts

    def bin_outcomes_numba(cum, draws):
        return _bin_outcomes_numba(
            np.ascontiguousarray(cum), np.ascontiguousarray(draws)
        )

else:  # pragma: no cover
    bin_outcomes_numba = None


if NUMBA_ENABLED:
    bin_outcomes = bin_outcomes_numba
else:
    bin_outcomes = bin_outcomes_numpy


def backend() -> str:
    """Name of the kernel path selected at import time."""
    return "numba" if NUMBA_ENABLED else "numpy"
