"""The benchmark's layer spans stay reachable from the CLI.

perfbench/tracer.py times each layer by wrapping a public function where its
caller looks it up.  A refactor that calls a layer some other way leaves that
span empty and the traced benchmark incorrect; this test catches it without
running the benchmark.
"""

import sys
from pathlib import Path

import pytest

from qfmimo.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import CLI_SPAN, SPAN_NAMES, Tracer  # noqa: E402

TINY = ["--m", "3", "--beta", "2", "--trials", "4", "--sample-size", "3", "--workers", "1"]


@pytest.mark.parametrize(
    "argv, batches",
    [
        # The three sampled destinations fall in two groups.
        ([*TINY, "--mode", "tdma"], 2),
        ([*TINY, "--mode", "hier"], 2),
        # Three points, so five group batches in all.
        (["--sweep", "2,3,4", "--fit", "power_law", "--beta", "2", "--trials", "4",
          "--sample-size", "3", "--seed", "11", "--workers", "1"], 5),
    ],
    ids=["tdma", "hier", "sweep_fit"],
)
def test_every_layer_span_is_called(argv, batches, tmp_path):
    tr = Tracer()
    with tr.installed():
        rc = tr.wrap(CLI_SPAN, main)([*argv, "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    calls = {name: n for name, (n, _) in tr.layers().items()}
    # fit_scaling runs only with --fit on a sweep.
    missing = [
        s for s in SPAN_NAMES
        if calls[s] == 0 and (s != "harness.fit_scaling" or "--fit" in argv)
    ]
    assert missing == []
    # The rate layer runs once per group batch.
    assert (
        calls["qmimo.achievable_rate"]
        == calls["linkrate.link_capacity"]
        == calls["qmimo.noise_profile"]
        == batches
    )

