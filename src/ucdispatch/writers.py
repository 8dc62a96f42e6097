"""Deterministic MPS and LP text emission.

Both writers produce byte-identical output for the same model: columns and
rows appear in model order, numbers are printed with 17 significant digits
(round-trip safe for doubles) and lines end with LF.

Each distinct number is formatted once per emission (a model repeats a few
thousand values millions of times), and the text is built as one chunk per
MPS column or LP row straight from the model's arrays, then joined once.
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


class _Numbers(dict):
    """value -> its text, formatted on first use."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _num(value)
        return text


class _Terms(dict):
    """coefficient -> its signed LP text, "- 2" or "+ 2", on first use."""

    def __missing__(self, coef: float) -> str:
        text = self[coef] = f"{'- ' if coef < 0 else '+ '}{_num(abs(coef))}"
        return text


def _row_name(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name).strip("_")


def write_mps(model: MilpModel) -> str:
    """Free-format MPS with INTORG/INTEND markers around binary columns."""
    rows, names, binaries = model.rows, model.columns.names, model.columns.binaries
    num = _Numbers()
    row_names = [_row_name(row) for row in rows.names]
    chunks = ["NAME ucdispatch\nROWS\n N  OBJ\n"]
    chunks += [f" {_MPS_SENSE[SENSES[code]]}  {row}\n"
               for row, code in zip(row_names, rows.sense.tolist())]

    # the nonzeros in column-major order; the stable sort keeps the rows of
    # each column ascending
    order = np.argsort(rows.indices, kind="stable")
    col_rows, col_data = rows.row_ids()[order], rows.data[order]
    counts = np.bincount(rows.indices, minlength=model.num_columns)
    col_ptr = [0, *np.cumsum(counts).tolist()]

    chunks.append("COLUMNS\n")
    is_binary = set(binaries)
    in_integer_block = False
    marker = 0
    for col, var_name in enumerate(names):
        if (col in is_binary) != in_integer_block:
            in_integer_block = not in_integer_block
            marker += 1
            kind = "'INTORG'" if in_integer_block else "'INTEND'"
            chunks.append(f"    MARKER{marker}  'MARKER'  {kind}\n")
        start, stop = col_ptr[col], col_ptr[col + 1]
        lead = f"    {var_name}  "
        if col in model.objective:
            chunks.append(f"{lead}OBJ  {num[model.objective[col]]}\n")
        elif start == stop:
            # declare otherwise-unreferenced columns
            chunks.append(f"{lead}OBJ  0\n")
        chunks.append("".join([
            f"{lead}{row_names[row]}  {num[coef]}\n"
            for row, coef in zip(col_rows[start:stop].tolist(),
                                 col_data[start:stop].tolist())]))
    if in_integer_block:
        marker += 1
        chunks.append(f"    MARKER{marker}  'MARKER'  'INTEND'\n")

    chunks.append("RHS\n")
    chunks += [f"    RHS  {row}  {num[rhs]}\n"
               for row, rhs in zip(row_names, rows.rhs.tolist()) if rhs != 0.0]

    chunks.append("BOUNDS\n")
    chunks += [f" BV BND  {names[col]}\n" for col in binaries]

    chunks.append("ENDATA\n")
    return "".join(chunks)


def _wrapped(label: str, parts: list[str], width: int = 78) -> str:
    """``label`` followed by ``parts``, each of which starts with its space,
    broken into lines of at most ``width`` characters where possible;
    continuation lines are indented by three and hold at least one part."""
    chunks, used = [label], len(label)
    for i, part in enumerate(parts):
        used += len(part)
        if i and used > width:
            chunks.append("\n  ")
            used = 2 + len(part)
        chunks.append(part)
    chunks.append("\n")
    return "".join(chunks)


def _lp_terms(pairs, names, term) -> list[str]:
    """The " [+|-] number name" terms of (column, coefficient) pairs; the
    first drops its "+ "."""
    parts = [f" {term[coef]} {names[col]}" for col, coef in pairs]
    if parts and parts[0][1] == "+":
        parts[0] = " " + parts[0][3:]
    return parts


def write_lp(model: MilpModel) -> str:
    """CPLEX-LP dialect, semantically identical to the MPS emission."""
    rows, names = model.rows, model.columns.names
    num, term = _Numbers(), _Terms()
    objective = _lp_terms(sorted(model.objective.items()), names, term)
    chunks = ["Minimize\n", _wrapped(" obj:", objective) if objective else " obj: 0\n",
              "Subject To\n"]
    for i, (row, code, rhs) in enumerate(
            zip(rows.names, rows.sense.tolist(), rows.rhs.tolist())):
        parts = _lp_terms(rows.row(i), names, term)
        parts += (f" {SENSES[code]}", f" {num[rhs]}")
        chunks.append(_wrapped(f" {_row_name(row)}:", parts))

    binaries = [names[col] for col in model.columns.binaries]
    if binaries:
        chunks.append("Bounds\n")
        chunks += [f" 0 <= {name} <= 1\n" for name in binaries]
        chunks.append("Binaries\n")
        chunks.append(_wrapped("", [f" {name}" for name in binaries]))
    chunks.append("End\n")
    return "".join(chunks)
