"""Standalone MILP solver command: reads an MPS or LP file, solves with HiGHS.

Installed as ``ucdispatch-mip MODEL SOLUTION``; the default external backend
of the CLI.  Writes one "name value" line per column plus a commented
objective line, and exits nonzero unless the solve reached optimality.

This module deliberately shares no code with the model builder or the file
writers: it parses the standard formats from scratch and solves with
scipy's HiGHS interface, so an agreement between this path and the built-in
exact solver checks both sides.

Each column name is resolved once, as it is read, to its position in
``MipProblem.var_order``, and everything else is keyed by that position.
The MPS reader honours ``OBJSENSE``; a section it does not read or a row
declared twice is a parse error (exit 2), never a silently different model.
It walks the text a block of about 1 MiB at a time rather than splitting it
into one list of lines, converts each distinct number text once, and takes
a COLUMNS line for the same column as the line before it straight to its
row.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class MipProblem:
    maximize: bool = False
    #: column name -> position, in the order the names were first read
    var_order: dict[str, int] = field(default_factory=dict)
    objective: dict[int, float] = field(default_factory=dict)
    #: one [coefficients by position, sense, rhs] cell per constraint row
    rows: list[list] = field(default_factory=list)
    integers: set[int] = field(default_factory=set)
    lower: dict[int, float] = field(default_factory=dict)
    upper: dict[int, float] = field(default_factory=dict)

    def touch(self, name: str) -> int:
        """The position of column ``name``, adding it if it is new."""
        return self.var_order.setdefault(name, len(self.var_order))


# ---------------------------------------------------------------------------
# MPS

_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}
_MPS_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS"}
_MPS_OBJSENSE = {"MAX": True, "MAXIMIZE": True, "MIN": False, "MINIMIZE": False}


def _mps_pairs(tokens):
    """The (row, value) pairs after the leading name of a COLUMNS or RHS line."""
    if len(tokens) % 2 == 0:
        raise ValueError(f"unpaired entry {tokens[-1]!r} after {tokens[0]}")
    return zip(tokens[1::2], tokens[2::2])


class _Numbers(dict):
    """number text -> its float, converted on first use."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _lines(text: str, block: int = 1 << 20):
    """The lines of ``text`` exactly as ``text.splitlines()`` gives them,
    split a block of about ``block`` characters at a time; each block ends
    just after a line feed, which no line break spans."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + block - 1) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def parse_mps(text: str) -> MipProblem:
    problem = MipProblem()
    # row name -> its [coefficients, sense, rhs] cell; the objective row's
    # coefficients are the objective, and further N rows go nowhere
    cells: dict[str, list] = {}
    objective_row = section = None
    integer_mode = False
    # the name and position of the column the last COLUMNS line was for
    column_name, col = None, -1
    # number text -> float; a model repeats a few thousand values millions of times
    number = _Numbers()
    try:
        for raw in _lines(text):
            tokens = raw.split()
            if (len(tokens) == 3 and tokens[0] == column_name and section == "COLUMNS"
                    and raw[0].isspace() and "'MARKER'" not in tokens):
                # another entry of the column the last line was for
                coefs = cells[tokens[1]][0]
                coefs[col] = coefs.get(col, 0.0) + number[tokens[2]]
                continue
            if not tokens or raw[0] == "*":
                continue
            if not raw[0].isspace():
                section = tokens[0].upper()
                if section == "ENDATA":
                    break
                if section not in _MPS_SECTIONS:
                    raise ValueError(f"MPS {section} sections are not supported")
                if section != "OBJSENSE" or len(tokens) == 1:
                    continue
                del tokens[0]  # "OBJSENSE MAX": the sense is on the header line
            if section == "COLUMNS":
                if "'MARKER'" in tokens:
                    integer_mode = "'INTORG'" in tokens
                    column_name = None
                    continue
                column_name, col = tokens[0], problem.touch(tokens[0])
                if integer_mode:
                    problem.integers.add(col)
                for row, value in _mps_pairs(tokens):
                    coefs = cells[row][0]
                    coefs[col] = coefs.get(col, 0.0) + number[value]
            elif section == "RHS":
                for row, value in _mps_pairs(tokens):
                    if row == objective_row:
                        # other readers take it as minus a constant objective term
                        raise ValueError(f"right-hand side on the objective row {row}")
                    cells[row][2] = number[value]
            elif section == "ROWS":
                sense, name = tokens[0].upper(), tokens[1]
                if name in cells:
                    raise ValueError(f"row {name} is declared twice")
                if sense == "N":
                    objective_row = objective_row or name
                    coefs = problem.objective if objective_row == name else {}
                    cells[name] = [coefs, "N", 0.0]
                elif sense in _MPS_SENSE:
                    cells[name] = [{}, _MPS_SENSE[sense], 0.0]
                    problem.rows.append(cells[name])
                else:
                    raise ValueError(f"unknown row type {tokens[0]!r} for row {name}")
            elif section == "BOUNDS":
                btype, col = tokens[0].upper(), problem.touch(tokens[2])
                if btype == "UP":
                    problem.upper[col] = float(tokens[3])
                elif btype == "LO":
                    problem.lower[col] = float(tokens[3])
                elif btype == "FX":
                    problem.lower[col] = problem.upper[col] = float(tokens[3])
                elif btype == "BV":
                    problem.integers.add(col)
                    problem.lower[col] = 0.0
                    problem.upper[col] = 1.0
                elif btype == "MI":
                    problem.lower[col] = -np.inf
                elif btype == "PL":
                    problem.upper[col] = np.inf
                elif btype == "FR":
                    problem.lower[col] = -np.inf
                    problem.upper[col] = np.inf
                else:
                    raise ValueError(f"unsupported bound type {btype}")
            elif section == "OBJSENSE" and tokens[0].upper() in _MPS_OBJSENSE:
                problem.maximize = _MPS_OBJSENSE[tokens[0].upper()]
            else:
                raise ValueError(f"unexpected line {raw.strip()!r} in section {section}")
    except KeyError as exc:  # only ``cells[row]`` can miss
        raise ValueError(f"entry on row {exc} that ROWS does not declare") from None
    return problem


# ---------------------------------------------------------------------------
# CPLEX LP

_LP_SENSE = {"<=": "<=", "=<": "<=", ">=": ">=", "=>": ">=", "=": "="}
_LP_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_LP_INFINITY = re.compile(r"^[+-]?inf(inity)?$", re.IGNORECASE)
_LP_TOKEN = re.compile(
    r"<=|>=|=<|=>|=|\+|-|:|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.]*"
)

_LP_SECTIONS = {
    "minimize": "objective", "minimise": "objective", "min": "objective",
    "maximize": "objective", "maximise": "objective", "max": "objective",
    "subject": "constraints", "st": "constraints", "s.t.": "constraints",
    "such": "constraints",
    "bounds": "bounds", "bound": "bounds",
    "binaries": "binaries", "binary": "binaries", "bin": "binaries",
    "generals": "generals", "general": "generals", "gen": "generals",
    "end": "end",
}


def _lp_section_of(line: str) -> str | None:
    word = line.strip().split()[0].lower() if line.strip() else ""
    section = _LP_SECTIONS.get(word)
    if section == "constraints" and word in ("subject", "such"):
        rest = line.strip().lower().split()
        if len(rest) < 2 or rest[1] != "to":
            return None
    return section


def parse_lp(text: str) -> MipProblem:
    problem = MipProblem()
    sections: dict[str, list[str]] = {
        "objective": [], "constraints": [], "bounds": [],
        "binaries": [], "generals": [],
    }
    current = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        section = _lp_section_of(line)
        if section == "end":
            break
        if section is not None:
            current = section
            if section == "objective":
                problem.maximize = line.strip().split()[0].lower().startswith("max")
            continue
        if current:
            sections[current].append(line)

    tokens = _LP_TOKEN.findall(" ".join(sections["objective"]))
    i = 2 if len(tokens) > 1 and tokens[1] == ":" else 0
    # "obj: 0" is how an empty objective is written
    if tokens[i:] != ["0"]:
        problem.objective, i = _parse_lp_terms(tokens, i, problem)
        if i < len(tokens):
            raise ValueError(f"unexpected {tokens[i]!r} in the objective")

    tokens = _LP_TOKEN.findall(" ".join(sections["constraints"]))
    i = 0
    while i < len(tokens):
        # optional "name :" prefix
        if i + 1 < len(tokens) and tokens[i + 1] == ":":
            i += 2
        coefs, i = _parse_lp_terms(tokens, i, problem)
        if i == len(tokens):
            raise ValueError("constraint without a relational operator")
        sense, rhs_sign = _LP_SENSE[tokens[i]], 1.0
        i += 1
        if i < len(tokens) and tokens[i] in ("+", "-"):
            rhs_sign = -1.0 if tokens[i] == "-" else 1.0
            i += 1
        if i >= len(tokens) or not _LP_NUMBER.match(tokens[i]):
            raise ValueError("constraint without a right-hand side")
        problem.rows.append([coefs, sense, rhs_sign * float(tokens[i])])
        i += 1

    for line in sections["bounds"]:
        _parse_lp_bound(line, problem)
    for line in sections["binaries"]:
        for name in line.split():
            col = problem.touch(name)
            problem.integers.add(col)
            problem.lower.setdefault(col, 0.0)
            problem.upper.setdefault(col, 1.0)
    for line in sections["generals"]:
        for name in line.split():
            problem.integers.add(problem.touch(name))
    return problem


def _parse_lp_terms(tokens: list[str], i: int, problem: MipProblem):
    """The "[+|-] [number] name" terms from ``tokens[i]`` up to a relational
    operator or the end, as (coefficients by position, index of the
    stopping token)."""
    coefs: dict[int, float] = {}
    while i < len(tokens) and tokens[i] not in _LP_SENSE:
        sign = 1.0
        if tokens[i] in ("+", "-"):
            sign = -1.0 if tokens[i] == "-" else 1.0
            i += 1
        elif coefs:
            raise ValueError(f"no + or - before {tokens[i]!r}")
        coef = 1.0
        if i < len(tokens) and _LP_NUMBER.match(tokens[i]):
            coef = float(tokens[i])
            i += 1
        if (i == len(tokens) or tokens[i] in _LP_SENSE or tokens[i] in ("+", "-", ":")
                or _LP_NUMBER.match(tokens[i])):
            raise ValueError("a constant or a sign without a variable")
        col = problem.touch(tokens[i])
        coefs[col] = coefs.get(col, 0.0) + sign * coef
        i += 1
    return coefs, i


def _lp_bound_value(token: str) -> float:
    if _LP_INFINITY.match(token):
        return -np.inf if token[0] == "-" else np.inf
    return float(token)


def _parse_lp_bound(line: str, problem: MipProblem) -> None:
    text = line.strip()
    free = re.match(r"^(\S+)\s+free$", text, re.IGNORECASE)
    if free:
        col = problem.touch(free.group(1))
        problem.lower[col] = -np.inf
        problem.upper[col] = np.inf
        return
    parts = re.split(r"(<=|>=|=)", text.replace(" ", ""))
    parts = [p for p in parts if p]
    if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
        col = problem.touch(parts[2])
        problem.lower[col] = _lp_bound_value(parts[0])
        problem.upper[col] = _lp_bound_value(parts[4])
    elif len(parts) == 3:
        left, op, right = parts
        if _LP_NUMBER.match(left) or _LP_INFINITY.match(left):
            name, value, flip = right, _lp_bound_value(left), True
        else:
            name, value, flip = left, _lp_bound_value(right), False
        col = problem.touch(name)
        if op == "=":
            problem.lower[col] = problem.upper[col] = value
        elif (op == "<=") != flip:
            problem.upper[col] = value
        else:
            problem.lower[col] = value
    else:
        raise ValueError(f"cannot parse bound line {line!r}")


# ---------------------------------------------------------------------------
# solving


def solve_problem(problem: MipProblem):
    """Returns (status_string, objective, {name: value})."""
    n = len(problem.var_order)
    con_lb = np.array([-np.inf if sense == "<=" else rhs for _, sense, rhs in problem.rows])
    con_ub = np.array([np.inf if sense == ">=" else rhs for _, sense, rhs in problem.rows])
    if n == 0:
        # milp needs a column; without one every row's activity is 0
        if np.all(con_lb <= 0.0) and np.all(con_ub >= 0.0):
            return "optimal", 0.0, {}
        return "infeasible: a row without columns does not hold at 0", None, {}

    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    c = np.zeros(n)
    c[list(problem.objective)] = list(problem.objective.values())
    if problem.maximize:
        c = -c
    lb, ub = np.zeros(n), np.full(n, np.inf)
    lb[list(problem.lower)] = list(problem.lower.values())
    ub[list(problem.upper)] = list(problem.upper.values())
    integrality = np.zeros(n, dtype=int)
    integrality[list(problem.integers)] = 1

    constraints = []
    if problem.rows:
        data, rows_ix, cols_ix = [], [], []
        for i, (coefs, _, _) in enumerate(problem.rows):
            rows_ix += [i] * len(coefs)
            cols_ix += coefs.keys()
            data += coefs.values()
        matrix = sparse.csr_matrix(
            (data, (rows_ix, cols_ix)), shape=(len(problem.rows), n))
        constraints.append(LinearConstraint(matrix, con_lb, con_ub))

    # a zero gap: HiGHS's default 1e-4 stops short of the optimum the
    # cross-check against the built-in solver needs
    result = milp(c=c, constraints=constraints, integrality=integrality,
                  bounds=Bounds(lb, ub), options={"mip_rel_gap": 0.0})
    if result.status != 0 or result.x is None:
        return result.message or f"status {result.status}", None, {}
    objective = float(result.fun)
    if problem.maximize:
        objective = -objective
    return "optimal", objective, dict(zip(problem.var_order, result.x.tolist()))


def detect_format(path: str, text: str) -> str:
    lower = path.lower()
    if lower.endswith(".mps"):
        return "mps"
    if lower.endswith(".lp"):
        return "lp"
    for line in text.splitlines():
        word = line.strip().split()[0].upper() if line.strip() else ""
        if not word or word.startswith("*"):
            continue
        if word in ("NAME", "ROWS", "OBJSENSE"):
            return "mps"
        return "lp"
    return "mps"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ucdispatch-mip",
        description="Solve an MPS or LP file with HiGHS and write 'name value' lines.")
    parser.add_argument("model", help="input model file (.mps or .lp)")
    parser.add_argument("solution", help="output solution file")
    args = parser.parse_args(argv)

    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ucdispatch-mip: {exc}", file=sys.stderr)
        return 2

    try:
        problem = (parse_mps if detect_format(args.model, text) == "mps" else parse_lp)(text)
    except (ValueError, IndexError) as exc:
        print(f"ucdispatch-mip: cannot parse {args.model}: {exc}", file=sys.stderr)
        return 2

    status, objective, values = solve_problem(problem)
    if status != "optimal":
        print(f"ucdispatch-mip: solve failed: {status}", file=sys.stderr)
        return 1

    with open(args.solution, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# objective {objective:.17g}\n")
        for name, value in values.items():
            handle.write(f"{name} {value:.17g}\n")
    print(f"optimal objective {objective:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
