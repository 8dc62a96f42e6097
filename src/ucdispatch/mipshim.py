"""Standalone MILP solver command: reads an MPS or LP file, solves with HiGHS.

Installed as ``ucdispatch-mip MODEL SOLUTION``; the default external backend
of the CLI.  Writes one "name value" line per column plus a commented
objective line, and exits nonzero unless the solve reached optimality.

This module deliberately shares no code with the model builder or the file
writers: it parses the standard formats from scratch and solves with
scipy's HiGHS interface, so an agreement between this path and the built-in
exact solver checks both sides.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass
class MipProblem:
    maximize: bool = False
    var_order: list[str] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    rows: list[tuple[dict[str, float], str, float]] = field(default_factory=list)
    integers: set[str] = field(default_factory=set)
    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self._seen: set[str] = set(self.var_order)

    def touch(self, name: str) -> None:
        if name not in self._seen:
            self._seen.add(name)
            self.var_order.append(name)


# ---------------------------------------------------------------------------
# MPS

_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}


def _mps_pairs(tokens):
    """The (row, value) pairs after the leading name of a COLUMNS or RHS line."""
    if len(tokens) % 2 == 0:
        raise ValueError(f"unpaired entry {tokens[-1]!r} after {tokens[0]}")
    return zip(tokens[1::2], tokens[2::2])


def parse_mps(text: str) -> MipProblem:
    problem = MipProblem()
    section = None
    objective_row = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    declared: set[str] = set()
    entries: dict[str, dict[str, float]] = {}
    rhs: dict[str, float] = {}
    integer_mode = False

    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            section = raw.split()[0].upper()
            continue
        tokens = raw.split()
        if section == "ROWS":
            sense, name = tokens[0].upper(), tokens[1]
            declared.add(name)
            if sense == "N":
                if objective_row is None:
                    objective_row = name
            elif sense in _MPS_SENSE:
                row_sense[name] = _MPS_SENSE[sense]
                row_order.append(name)
            else:
                raise ValueError(f"unknown row type {tokens[0]!r} for row {name}")
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                integer_mode = "'INTORG'" in tokens
                continue
            name = tokens[0]
            problem.touch(name)
            if integer_mode:
                problem.integers.add(name)
            for row, value in _mps_pairs(tokens):
                coef = float(value)
                if row == objective_row:
                    problem.objective[name] = problem.objective.get(name, 0.0) + coef
                else:
                    entries.setdefault(row, {})
                    entries[row][name] = entries[row].get(name, 0.0) + coef
        elif section == "RHS":
            for row, value in _mps_pairs(tokens):
                rhs[row] = float(value)
        elif section == "RANGES":
            raise ValueError("MPS RANGES sections are not supported")
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            name = tokens[2]
            problem.touch(name)
            if btype == "UP":
                problem.upper[name] = float(tokens[3])
            elif btype == "LO":
                problem.lower[name] = float(tokens[3])
            elif btype == "FX":
                problem.lower[name] = problem.upper[name] = float(tokens[3])
            elif btype == "BV":
                problem.integers.add(name)
                problem.lower[name] = 0.0
                problem.upper[name] = 1.0
            elif btype == "MI":
                problem.lower[name] = -np.inf
            elif btype == "PL":
                problem.upper[name] = np.inf
            elif btype == "FR":
                problem.lower[name] = -np.inf
                problem.upper[name] = np.inf
            else:
                raise ValueError(f"unsupported bound type {btype}")

    undeclared = (entries.keys() | rhs.keys()) - declared
    if undeclared:
        raise ValueError(f"entries on rows that ROWS does not declare: {sorted(undeclared)}")
    for row in row_order:
        problem.rows.append((entries.get(row, {}), row_sense[row], rhs.get(row, 0.0)))
    return problem


# ---------------------------------------------------------------------------
# CPLEX LP

_LP_SENSE = {"<=": "<=", "=<": "<=", ">=": ">=", "=>": ">=", "=": "="}
_LP_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
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
        problem.rows.append((coefs, sense, rhs_sign * float(tokens[i])))
        i += 1

    for line in sections["bounds"]:
        _parse_lp_bound(line, problem)
    for line in sections["binaries"]:
        for name in line.split():
            problem.touch(name)
            problem.integers.add(name)
            problem.lower.setdefault(name, 0.0)
            problem.upper.setdefault(name, 1.0)
    for line in sections["generals"]:
        for name in line.split():
            problem.touch(name)
            problem.integers.add(name)
    return problem


def _parse_lp_terms(tokens: list[str], i: int, problem: MipProblem):
    """The "[+|-] [number] name" terms from ``tokens[i]`` up to a relational
    operator or the end, as (coefficients, index of the stopping token)."""
    coefs: dict[str, float] = {}
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
        problem.touch(tokens[i])
        coefs[tokens[i]] = coefs.get(tokens[i], 0.0) + sign * coef
        i += 1
    return coefs, i


def _lp_bound_value(token: str) -> float:
    low = token.lower()
    if low in ("inf", "+inf", "infinity", "+infinity"):
        return np.inf
    if low in ("-inf", "-infinity"):
        return -np.inf
    return float(token)


def _parse_lp_bound(line: str, problem: MipProblem) -> None:
    text = line.strip()
    free = re.match(r"^(\S+)\s+free$", text, re.IGNORECASE)
    if free:
        name = free.group(1)
        problem.touch(name)
        problem.lower[name] = -np.inf
        problem.upper[name] = np.inf
        return
    parts = re.split(r"(<=|>=|=)", text.replace(" ", ""))
    parts = [p for p in parts if p]
    if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
        name = parts[2]
        problem.touch(name)
        problem.lower[name] = _lp_bound_value(parts[0])
        problem.upper[name] = _lp_bound_value(parts[4])
    elif len(parts) == 3:
        left, op, right = parts
        if _LP_NUMBER.match(left) or left.lower().endswith("inf"):
            name, value, flip = right, _lp_bound_value(left), True
        else:
            name, value, flip = left, _lp_bound_value(right), False
        problem.touch(name)
        if op == "=":
            problem.lower[name] = problem.upper[name] = value
        elif (op == "<=") != flip:
            problem.upper[name] = value
        else:
            problem.lower[name] = value
    else:
        raise ValueError(f"cannot parse bound line {line!r}")


# ---------------------------------------------------------------------------
# solving


def solve_problem(problem: MipProblem):
    """Returns (status_string, objective, {name: value})."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    names = problem.var_order
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in problem.objective.items():
        c[index[name]] = coef
    if problem.maximize:
        c = -c

    lb = np.array([problem.lower.get(name, 0.0) for name in names])
    ub = np.array([problem.upper.get(name, np.inf) for name in names])
    integrality = np.array([1 if name in problem.integers else 0 for name in names])

    constraints = []
    if problem.rows:
        data, rows_ix, cols_ix = [], [], []
        con_lb = np.empty(len(problem.rows))
        con_ub = np.empty(len(problem.rows))
        for i, (coefs, sense, rhs) in enumerate(problem.rows):
            for name, coef in coefs.items():
                rows_ix.append(i)
                cols_ix.append(index[name])
                data.append(coef)
            con_lb[i] = -np.inf if sense == "<=" else rhs
            con_ub[i] = np.inf if sense == ">=" else rhs
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
    return "optimal", objective, {name: float(result.x[index[name]]) for name in names}


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
    parser.add_argument("--format", choices=("auto", "mps", "lp"), default="auto")
    args = parser.parse_args(argv)

    try:
        text = open(args.model, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ucdispatch-mip: {exc}", file=sys.stderr)
        return 2

    fmt = args.format if args.format != "auto" else detect_format(args.model, text)
    try:
        problem = parse_mps(text) if fmt == "mps" else parse_lp(text)
    except (ValueError, IndexError) as exc:
        print(f"ucdispatch-mip: cannot parse {args.model}: {exc}", file=sys.stderr)
        return 2

    status, objective, values = solve_problem(problem)
    if status != "optimal":
        print(f"ucdispatch-mip: solve failed: {status}", file=sys.stderr)
        return 1

    with open(args.solution, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# objective {objective:.17g}\n")
        for name in problem.var_order:
            handle.write(f"{name} {values[name]:.17g}\n")
    print(f"optimal objective {objective:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
