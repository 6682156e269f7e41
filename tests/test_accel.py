"""The backend name the benchmark records with every run."""

from puremit import _accel


def test_backend_name_matches_flag():
    assert _accel.backend() == "numpy"
