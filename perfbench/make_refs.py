"""Regenerate the reference CSVs in perfbench/ref from the current program.

    python3 perfbench/make_refs.py

Each file is the CLI's output for one workload at the pinned seed.  Rewrite
them only when a change is meant to alter the program's numbers, and say so.
"""

from __future__ import annotations

import sys

import child
from run import PINNED_SEED, REF_DIR, WORKLOADS, invoke


def main() -> int:
    child.load_program()
    REF_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        out = REF_DIR / f"{name}.csv"
        inv = invoke(workload, PINNED_SEED, out)
        if inv.code != 0 or inv.error:
            print(f"{name}: exit {inv.code} {inv.error}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
