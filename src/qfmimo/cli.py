"""Command-line entry point.

Single-point evaluations and m-sweeps share one flat configuration: defaults
< config file (key=value lines) < command-line flags.  The argparse parser is
the only reader of settings: each config line becomes a --key=value token
placed before the command-line arguments, so both sources get the same types
and choices, and a flag wins because argparse keeps the last value it sees.
Scientific output is a CSV on --out (stdout when omitted); timing and fit
summaries go to stderr so the CSV stays byte-reproducible.  A valid run
keeps OpenBLAS on one thread per process, unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is set, so --workers is the only source of parallelism.

Exit codes: 0 success, 2 invalid configuration (an --out path that is
empty or cannot be written included, found before any point runs, and a
CSV write that fails, such as a full disk or a closed stdout pipe), 3
numerical failure or a size too large for memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .harness import (
    FIT_MODELS,
    POINT_FAILURES,
    ConfigError,
    PowerLawFit,
    SweepFailure,
    SweepRow,
    _one_blas_thread,
    check_sweep,
    fit_scaling,
    run_point,
    run_sweep,
    write_csv,
)
from .netgeom import MODES, NetworkParams


_COMMENT = re.compile(r"(?<!\S)#")


def load_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; a key that names no flag is fatal.

    A comment starts at a # that begins the line or follows whitespace, so a
    value such as run#3.csv keeps its #.
    """
    known = set(vars(build_parser().parse_args([]))) - {"config"}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def positive_int(text: str) -> int:
    """An integer >= 1: a count of trials, sampled destinations or workers."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def int_list(text: str) -> list[int]:
    """Comma-separated integers; check_sweep judges them as a sweep."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # A bad value raises ArgumentError, which main reports as a ConfigError.
    parser = argparse.ArgumentParser(
        prog="qfmimo",
        exit_on_error=False,
        description=(
            "Simulate a quantize-and-forward cooperative MIMO downlink: "
            "achievable sum rate, cut-set upper bound, and m-scaling sweeps."
        ),
    )
    parser.add_argument("--config", help="key=value config file (flags override it)")
    parser.add_argument("--m", type=int, help="source antenna count")
    parser.add_argument("--beta", type=float, help="destination exponent, n = round(m**beta)")
    parser.add_argument("--alpha", type=float, help="path-loss exponent (> 2)")
    parser.add_argument("--p0", type=float, help="source power")
    parser.add_argument("--p1", type=float, help="per-destination power")
    parser.add_argument("--q", type=float, help="cell-area exponent in (0,1)")
    parser.add_argument("--delta", type=float, help="first-phase time fraction in (0,1)")
    parser.add_argument("--mode", choices=MODES, help="in-group relay discipline")
    parser.add_argument("--epsilon", type=float, help="hier-mode rate exponent in (0,1)")
    parser.add_argument("--c2", type=float, help="hier-mode rate constant")
    parser.add_argument("--exclusion-radius", type=float, dest="exclusion_radius",
                        help="no-destination disk radius around the source")
    parser.add_argument("--trials", type=positive_int, help="Monte Carlo phase draws per estimate")
    parser.add_argument("--sample-size", type=positive_int, dest="sample_size",
                        help="destinations evaluated per sum-rate estimate")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--sweep", type=int_list, help="comma-separated ascending m values")
    parser.add_argument("--fit", choices=FIT_MODELS, help="fit the sweep's R_sum column")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="parallel workers for sweep points")
    return parser


def _parse_settings(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    source = ""
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The flags passed the first parse, so a bad value now is the file's.
            source = f"{args.config}: "
            lines = load_config(args.config).items()
            args = parser.parse_args(
                [*(f"--{key.replace('_', '-')}={value}" for key, value in lines), *argv]
            )
    except argparse.ArgumentError as exc:
        raise ConfigError(f"{source}{exc}") from exc
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_settings(sys.argv[1:] if argv is None else argv)
        try:
            params = NetworkParams(**{
                f.name: getattr(args, f.name)
                for f in dataclasses.fields(NetworkParams)
                if getattr(args, f.name) is not None
            })
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sweep, workers, fit_model, out = args.sweep, args.workers, args.fit, args.out
        # A single point is a one-point sweep, too short for any fit.
        check_sweep([params.m] if sweep is None else sweep, fit_model)
        if out is not None:
            # An unwritable CSV path fails now, not after every point has run;
            # an empty one names no file, so it does not fall back to stdout.
            folder = os.path.dirname(os.path.abspath(out))
            if (
                not out
                or os.path.isdir(out)
                or not os.access(out if os.path.exists(out) else folder, os.W_OK)
            ):
                raise ConfigError(f"--out {out!r} is not a writable file path")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Parallelism comes from --workers; a BLAS thread per core would contend.
    _one_blas_thread()

    try:
        # run_point rejects every non-finite output, so numpy's warnings on
        # the way there would only precede the same failure's error line.
        with np.errstate(all="ignore"):
            if sweep is None:
                rows = [run_point(params).row()]
            else:
                try:
                    rows = run_sweep(params, sweep, workers=workers)
                except SweepFailure as exc:
                    _emit(exc.partial, out)
                    print(f"error: {exc}", file=sys.stderr)
                    return 3
        for row in rows:
            _log_point(row)

        _emit(rows, out)

        if fit_model:
            fit = fit_scaling(rows, fit_model)
            if isinstance(fit, PowerLawFit):
                print(
                    f"fit power_law: slope={fit.slope:.4f} residual={fit.residual:.4g}",
                    file=sys.stderr,
                )
            else:
                print(
                    f"fit m_log_m_ratio: max/min={fit.max_min_ratio:.4f} "
                    f"ratios={[round(x, 6) for x in fit.ratios]}",
                    file=sys.stderr,
                )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except POINT_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _log_point(row: SweepRow) -> None:
    # The rate stage's parts sit inside the parentheses, so the stage list
    # after them is exactly place, rate, bound.
    parts = "".join(f" {k}={v:.3f}s" for k, v in row.rate_timings.items())
    stages = "".join(f" {k}={v:.3f}s" for k, v in row.timings.items())
    print(
        f"point m={row.m}: n={row.n} n1={row.n1} "
        f"R_sum={row.r_sum:.6g} R_upper={row.r_upper:.6g} "
        f"({row.runtime_seconds:.2f}s; in rate:{parts}){stages}",
        file=sys.stderr,
    )


def _emit(rows: list[SweepRow], out: str | None) -> None:
    """Write the CSV to `out` or stdout; a failed write is a ConfigError."""
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                write_csv(rows, fh)
        else:
            write_csv(rows, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if out is None:
            # Interpreter shutdown flushes stdout again, and whatever a failed
            # write left buffered would raise there, after the error line.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write the CSV to {out or 'stdout'}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
