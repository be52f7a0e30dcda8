"""Behaviour pin: pinned-seed points must reproduce a checked-in CSV.

The golden file was written by the pipeline before the relay-link layer was
vectorized.  Refactors may change summation order, so float columns are
compared at rtol=1e-12; integer and string columns must match exactly.  The
pin is checked on both phase kernels, whichever one this CPU selects at
import, since they differ in the phases' last bits.
Regenerate (only for an intended behaviour change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np

from qfmimo import CSV_HEADER, NetworkParams, qmimo, run_point

GOLDEN = Path(__file__).with_name("data") / "golden_points.csv"

# tdma with a destination subsample, tdma over every destination, a larger
# tdma grid with several co-active groups per slot, and hier.
GOLDEN_POINTS = (
    NetworkParams(m=4, beta=3.0, mode="tdma", seed=3, trials=16, sample_size=10),
    NetworkParams(m=3, beta=2.0, mode="tdma", seed=5, trials=16, sample_size=50),
    NetworkParams(m=8, beta=2.5, mode="tdma", seed=11, trials=8, sample_size=12),
    NetworkParams(m=4, beta=3.0, mode="hier", seed=3, trials=16, sample_size=10),
)

EXACT_COLUMNS = ("m", "n", "n1", "mode", "seed")


def _rows() -> list[str]:
    return [run_point(p).row().to_csv() for p in GOLDEN_POINTS]


def test_golden_points_reproduce(monkeypatch):
    header, *golden = GOLDEN.read_text().splitlines()
    assert header == CSV_HEADER
    names = header.split(",")
    for kernel, tangent in (("tangent", True), ("table", False)):
        monkeypatch.setattr(qmimo, "_TANGENT_PHASES", tangent)
        fresh = _rows()
        assert len(fresh) == len(golden)
        for want_line, got_line in zip(golden, fresh):
            want = dict(zip(names, want_line.split(",")))
            got = dict(zip(names, got_line.split(",")))
            for name in names:
                if name in EXACT_COLUMNS:
                    assert got[name] == want[name], (kernel, name, got_line, want_line)
                else:
                    np.testing.assert_allclose(
                        float(got[name]), float(want[name]), rtol=1e-12, atol=0.0,
                        equal_nan=True,
                        err_msg=f"{kernel} kernel, {name}: {got_line} vs {want_line}",
                    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join([CSV_HEADER, *_rows()]) + "\n")
