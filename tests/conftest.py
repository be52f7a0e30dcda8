import ctypes
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from qfmimo import harness

SRC = str(Path(__file__).resolve().parent.parent / "src")

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_configure(config):
    # pyproject's `pythonpath` only extends this interpreter's sys.path; the
    # CLI tests that spawn `python -m qfmimo.cli` need the source tree too.
    parts = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))


def _openblas_getter():
    """OpenBLAS's get-thread-count function beside the setter the pin uses."""
    setter = harness._openblas_setter()
    if setter is None:
        return None
    getter = getattr(harness._openblas_lib(), setter.__name__.replace("_set_", "_get_"), None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


@pytest.fixture(autouse=True)
def _keep_blas_threads():
    # The CLI pins OpenBLAS to one thread per process; a test that calls it
    # in this process must not pass that pin on to the tests after it.
    getter = _openblas_getter()
    before = getter() if getter else None
    yield
    if before is not None:
        harness._openblas_setter()(before)


@pytest.fixture
def openblas_threads():
    """OpenBLAS's thread-count getter; skips where the pin finds no setter."""
    getter = _openblas_getter()
    if getter is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    return getter
