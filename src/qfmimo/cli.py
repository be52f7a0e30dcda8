"""Command-line entry point.

Single-point evaluations and m-sweeps share one flat configuration: defaults
< config file (key=value lines) < command-line flags.  Scientific output is
a CSV on --out (stdout when omitted); timing and fit summaries go to stderr
so the CSV stays byte-reproducible.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .harness import (
    FIT_MODELS,
    ConfigError,
    NumericalError,
    PowerLawFit,
    ScalingSeries,
    SweepFailure,
    SweepRow,
    fit_scaling,
    run_point,
    run_sweep,
    write_csv,
)
from .netgeom import MODES, NetworkParams

_PARAM_KEYS = {f.name: type(f.default) for f in dataclasses.fields(NetworkParams)}

_RUN_KEYS = {
    "sweep": str,
    "fit": str,
    "out": str,
    "workers": int,
}

CONFIG_KEYS = {**_PARAM_KEYS, **_RUN_KEYS}


def load_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are fatal."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _parse_sweep(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--sweep expects comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfmimo",
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
    parser.add_argument("--trials", type=int, help="Monte Carlo phase draws per estimate")
    parser.add_argument("--sample-size", type=int, dest="sample_size",
                        help="destinations evaluated per sum-rate estimate")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--sweep", help="comma-separated ascending m values")
    parser.add_argument("--fit", choices=FIT_MODELS, help="fit the sweep's R_sum column")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--workers", type=int, help="parallel workers for sweep points")
    return parser


def _merge_settings(args: argparse.Namespace) -> dict[str, object]:
    settings: dict[str, object] = {}
    if args.config:
        for key, text in load_config(args.config).items():
            caster = CONFIG_KEYS[key]
            try:
                settings[key] = caster(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}={text!r}: {exc}") from exc
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        settings = _merge_settings(args)
        param_kwargs = {k: v for k, v in settings.items() if k in _PARAM_KEYS}
        try:
            params = NetworkParams(**param_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sweep = settings.get("sweep")
        m_list = _parse_sweep(sweep) if isinstance(sweep, str) and sweep else None
        workers = int(settings.get("workers", 1))
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        fit_model = settings.get("fit")
        if fit_model and fit_model not in FIT_MODELS:
            raise ConfigError(f"fit model must be one of {FIT_MODELS}, got {fit_model!r}")
        if fit_model and (m_list is None or len(m_list) < 3):
            raise ConfigError("--fit needs a --sweep with at least 3 points")
        if fit_model == "m_log_m_ratio" and min(m_list) < 2:
            raise ConfigError("--fit m_log_m_ratio needs every m >= 2 (log2 m must be > 0)")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        # run_point rejects every non-finite output, so numpy's warnings on
        # the way there would only precede the same failure's error line.
        with np.errstate(all="ignore"):
            if m_list is None:
                series = ScalingSeries(rows=[run_point(params).row()])
            else:
                try:
                    series = run_sweep(params, m_list, workers=workers)
                except SweepFailure as exc:
                    _emit(exc.partial, settings.get("out"))
                    print(f"error: {exc}", file=sys.stderr)
                    return 3
        for row in series.rows:
            _log_point(row)

        _emit(series, settings.get("out"))

        if fit_model:
            fit = fit_scaling(series, str(fit_model))
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
    except (NumericalError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # A ValueError past configuration is a numerical failure inside a
        # point, as run_sweep already treats it.
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


def _emit(series: ScalingSeries, out: object) -> None:
    if out:
        with open(str(out), "w", encoding="utf-8", newline="\n") as fh:
            write_csv(series, fh)
    else:
        write_csv(series, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
