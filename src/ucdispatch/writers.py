"""Deterministic MPS and LP text emission.

Both writers produce byte-identical output for the same model: columns and
rows appear in model order, numbers are printed with 17 significant digits
(round-trip safe for doubles) and lines end with LF.
"""

from __future__ import annotations

import re

import numpy as np

from .model import SENSES, MilpModel

_MPS_SENSE = {"<=": "L", "=": "E", ">=": "G"}
_NAME_SANITIZE = re.compile(r"[^A-Za-z0-9_]+")


def _num(value: float) -> str:
    if value == 0.0:
        value = 0.0  # never print -0
    return f"{value:.17g}"


def _row_name(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name).strip("_")


def write_mps(model: MilpModel) -> str:
    """Free-format MPS with INTORG/INTEND markers around binary columns."""
    rows, names, binaries = model.rows, model.columns.names, model.columns.binaries
    lines = ["NAME ucdispatch", "ROWS", " N  OBJ"]
    row_names = [_row_name(row) for row in rows.names]
    lines += [f" {_MPS_SENSE[SENSES[code]]}  {row}"
              for row, code in zip(row_names, rows.sense.tolist())]

    # the nonzeros in column-major order; the stable sort keeps the rows of
    # each column ascending
    order = np.argsort(rows.indices, kind="stable")
    col_rows, col_data = rows.row_ids()[order], rows.data[order]
    counts = np.bincount(rows.indices, minlength=model.num_columns)
    col_ptr = [0, *np.cumsum(counts).tolist()]

    lines.append("COLUMNS")
    is_binary = set(binaries)
    in_integer_block = False
    marker = 0
    for col, var_name in enumerate(names):
        if (col in is_binary) != in_integer_block:
            in_integer_block = not in_integer_block
            marker += 1
            kind = "'INTORG'" if in_integer_block else "'INTEND'"
            lines.append(f"    MARKER{marker}  'MARKER'  {kind}")
        start, stop = col_ptr[col], col_ptr[col + 1]
        if col in model.objective:
            lines.append(f"    {var_name}  OBJ  {_num(model.objective[col])}")
        elif start == stop:
            # declare otherwise-unreferenced columns
            lines.append(f"    {var_name}  OBJ  0")
        lines.extend(f"    {var_name}  {row_names[row]}  {_num(coef)}"
                     for row, coef in zip(col_rows[start:stop].tolist(),
                                          col_data[start:stop].tolist()))
    if in_integer_block:
        marker += 1
        lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")

    lines.append("RHS")
    lines.extend(f"    RHS  {row}  {_num(rhs)}"
                 for row, rhs in zip(row_names, rows.rhs.tolist()) if rhs != 0.0)

    lines.append("BOUNDS")
    lines.extend(f" BV BND  {names[col]}" for col in binaries)

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _lp_terms(pairs, names) -> list[str]:
    parts = []
    for col, coef in pairs:
        prefix = "- " if coef < 0 else "+ " if parts else ""
        parts.append(f"{prefix}{_num(abs(coef))} {names[col]}")
    return parts


def _wrap(label: str, parts: list[str], width: int = 78) -> list[str]:
    lines = [label]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > width and lines[-1] != label:
            lines.append("   " + part)
        else:
            lines[-1] += " " + part
    return lines


def write_lp(model: MilpModel) -> str:
    """CPLEX-LP dialect, semantically identical to the MPS emission."""
    rows, names = model.rows, model.columns.names
    lines = ["Minimize"]
    objective = sorted(model.objective.items())
    if objective:
        lines.extend(_wrap(" obj:", _lp_terms(objective, names)))
    else:
        lines.append(" obj: 0")

    lines.append("Subject To")
    for i, (row, code, rhs) in enumerate(
            zip(rows.names, rows.sense.tolist(), rows.rhs.tolist())):
        terms = _lp_terms(rows.row(i), names) + [SENSES[code], _num(rhs)]
        lines.extend(_wrap(f" {_row_name(row)}:", terms))

    binaries = [names[col] for col in model.columns.binaries]
    if binaries:
        lines.append("Bounds")
        lines.extend(f" 0 <= {name} <= 1" for name in binaries)
        lines.append("Binaries")
        lines.extend(_wrap("", binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"
