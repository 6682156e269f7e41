"""Name of the shot-binning backend, kept for the benchmark's run records.

Shot binning is pure numpy and lives in ``sampling.bin_outcomes``. This
module remains only because ``perfbench/run.py`` records ``backend()``
with every run; ROADMAP item 3 deletes it together with that benchmark
change.
"""


def backend() -> str:
    """Name of the shot-binning backend: always ``"numpy"``."""
    return "numpy"
