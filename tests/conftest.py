import os
from pathlib import Path

from hypothesis import HealthCheck, settings

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
