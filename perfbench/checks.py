"""Correctness gate for the CSVs a benchmark run produces.

Every check is per sweep point (CSV row), so a run can report failed points
against attempted points.  A point fails when its row is missing (the CLI
raised or exited non-zero before writing it), holds a non-finite value,
breaks R_sum <= R_upper, carries a runtime_s other than 0.0, differs from
the reference CSV stored for the pinned seed, or is not byte-identical to the
same point of an earlier run on the same inputs.
"""

from __future__ import annotations

import math

# Columns compared exactly; the remaining ones are floats.
EXACT_COLUMNS = ("m", "n", "n1", "mode", "seed")
FLOAT_RTOL = 1e-9


def _rows(text: str) -> tuple[str, dict[int, dict[str, str]]]:
    lines = text.splitlines()
    if not lines:
        return "", {}
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        if len(fields) == len(header) and fields["m"].isdigit():
            rows[int(fields["m"])] = fields
    return lines[0], rows


def _invariant_errors(row: dict[str, str]) -> list[str]:
    errors = []
    for column, text in row.items():
        if column in EXACT_COLUMNS:
            continue
        try:
            value = float(text)
        except ValueError:
            errors.append(f"{column}={text!r} is not a number")
            continue
        if not math.isfinite(value):
            errors.append(f"{column}={text} is not finite")
    if not errors and float(row["R_sum"]) > float(row["R_upper"]):
        errors.append(f"R_sum={row['R_sum']} exceeds R_upper={row['R_upper']}")
    if row.get("runtime_s") != "0.0":
        errors.append(f"runtime_s={row.get('runtime_s')!r}, expected '0.0'")
    return errors


def _reference_errors(row: dict[str, str], ref: dict[str, str]) -> list[str]:
    errors = []
    for column, expected in ref.items():
        got = row.get(column)
        if column in EXACT_COLUMNS or column == "runtime_s":
            if got != expected:
                errors.append(f"{column}={got!r}, reference {expected!r}")
        elif not math.isclose(float(got), float(expected), rel_tol=FLOAT_RTOL, abs_tol=0.0):
            errors.append(f"{column}={got}, reference {expected} (rtol {FLOAT_RTOL:g})")
    return errors


def point_errors(
    text: str,
    m_list: list[int],
    reference: str | None = None,
    identical_to: str | None = None,
) -> dict[int, list[str]]:
    """Errors per expected point m; an empty list means the point passed.

    reference is compared with FLOAT_RTOL on float columns; identical_to must
    match byte for byte, header included.
    """
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(reference) if reference is not None else ("", {})
    same_header, same_rows = _rows(identical_to) if identical_to is not None else ("", {})
    out: dict[int, list[str]] = {}
    for m in m_list:
        row = rows.get(m)
        if row is None:
            out[m] = ["row missing"]
            continue
        errors = _invariant_errors(row)
        if reference is not None and not errors:
            if header != ref_header:
                errors.append(f"header {header!r} differs from reference {ref_header!r}")
            elif m not in ref_rows:
                errors.append("point missing from the reference")
            else:
                errors.extend(_reference_errors(row, ref_rows[m]))
        if identical_to is not None and (header != same_header or row != same_rows.get(m)):
            errors.append("not byte-identical to the earlier run")
        out[m] = errors
    return out
