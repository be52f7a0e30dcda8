"""Measurements that need a fresh interpreter.

    python3 perfbench/child.py setup SEED
        Time to import qfmimo plus one tiny warm-up run_point, and the
        calibration kernel's time right after it (see calibrate.py).
    python3 perfbench/child.py workload CLI_ARG...
        Run the qfmimo CLI once with the given arguments (which include
        --out) and report its exit code, any traceback and the process's
        peak resident memory.

Each mode prints one JSON object on stdout.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# Smallest point that still passes through every layer of run_point.
WARMUP_POINT = {"m": 2, "beta": 2.0, "trials": 2, "sample_size": 2}


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and import qfmimo from it.

    Exits with an error when the checkout holds no qfmimo sources, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "qfmimo" / "__init__.py").is_file():
        sys.exit(f"error: no qfmimo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfmimo

    if SRC.resolve() not in Path(qfmimo.__file__).resolve().parents:
        sys.exit(f"error: imported qfmimo from {qfmimo.__file__}, not from {SRC}")


def peak_rss_kib() -> int:
    """High-water resident set of this process image, in KiB.

    ru_maxrss would also count the parent's memory copied in before exec,
    so the per-image VmHWM is read where the platform has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(main, argv: list[str]) -> tuple[int | None, str]:
    """Call a CLI entry point with its stderr captured.

    Returns the exit code and an empty string, or None and the traceback
    when the program raised.
    """
    try:
        with redirect_stderr(io.StringIO()):
            return main(argv), ""
    except Exception:  # a crashing program is a result: its points fail
        return None, traceback.format_exc()


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        start = perf_counter()
        load_program()
        from qfmimo import NetworkParams, run_point

        run_point(NetworkParams(seed=int(rest[0]), **WARMUP_POINT))
        setup_s = perf_counter() - start
        import calibrate  # after the timed part: it imports numpy

        print(json.dumps({"setup_s": setup_s, "kernel_s": calibrate.kernel_seconds()}))
        return 0
    if mode == "workload":
        load_program()
        from qfmimo.cli import main as cli_main

        code, error = run_cli(cli_main, rest)
        print(json.dumps({"exit": code, "error": error, "peak_rss_mb": peak_rss_kib() / 1024.0}))
        return 0
    sys.exit(f"error: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
