"""Standalone MILP solver command: reads an MPS or LP file, solves with HiGHS.

Installed as ``ucdispatch-mip MODEL SOLUTION``; the default external backend
of the CLI.  Writes one "name value" line per column plus a commented
objective line, and exits nonzero unless the solve reached optimality.

This module deliberately shares no code with the model builder or the file
writers: it parses the standard formats from scratch and solves with HiGHS,
so an agreement between this path and the built-in exact solver checks both
sides.  HiGHS is its one solver, called through the module SciPy bundles as
``scipy.optimize._highspy._core``, loaded from its file next to the
installed ``scipy`` so that a solver child never imports the much larger
``scipy.optimize``; without that module a solve fails (exit 1).  The shim
hands HiGHS the model one of two ways.  :func:`main` reads the file with its
own reader first, then has HiGHS read the same file and solves that only if
HiGHS holds exactly the shim's reading of it; HiGHS hands the checks lists
and scalars, so on this route the child imports no NumPy.  Where HiGHS
refuses the file or reads another model, :func:`solve_problem` hands HiGHS
the shim's reading in memory, as the same lists the checks compare; both
ways give HiGHS the same model, so the same answer.

Each column name is resolved once, as it is read, to its position in
``MipProblem.var_order``, and everything else is keyed by that position.
The MPS reader honours ``OBJSENSE``; a section it does not read, a row
declared twice or a third (row, value) pair on a COLUMNS or RHS line is a
parse error (exit 2), never a silently different model;
so is, in an LP file, a line before the first section or in a section the
reader does not support, and in either format a number that is not finite,
save an infinite bound that means "no bound", or that only Python reads,
such as ``1_0`` or ``١٢``.
It walks the text a block of about 1 MiB at a time rather than splitting it
into one list of lines, converts each distinct number text once, and takes
a COLUMNS line for the same column as the line before it straight to its
row.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import re
import sys
from pathlib import Path


class MipProblem:
    """A model as the readers hold it.  A plain class: ``dataclasses``
    would import ``inspect``, about 10 ms of every solver child's start-up.

    ``var_order`` maps each column name to its position, in the order the
    names were first read; ``rows`` holds one [coefficients by position,
    sense, rhs] cell per constraint row; ``objective``, ``lower`` and
    ``upper`` map a position to its value, and ``integers`` holds the
    positions of the integer columns."""

    def __init__(self, maximize: bool = False, var_order: dict[str, int] | None = None,
                 objective: dict[int, float] | None = None, rows: list[list] | None = None,
                 integers: set[int] | None = None, lower: dict[int, float] | None = None,
                 upper: dict[int, float] | None = None):
        self.maximize = maximize
        self.var_order = {} if var_order is None else var_order
        self.objective = {} if objective is None else objective
        self.rows = [] if rows is None else rows
        self.integers = set() if integers is None else integers
        self.lower = {} if lower is None else lower
        self.upper = {} if upper is None else upper

    def touch(self, name: str) -> int:
        """The position of column ``name``, adding it if it is new."""
        return self.var_order.setdefault(name, len(self.var_order))


# ---------------------------------------------------------------------------
# MPS

_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}
_MPS_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS"}
_MPS_OBJSENSE = {"MAX": True, "MAXIMIZE": True, "MIN": False, "MINIMIZE": False}


def _mps_pairs(tokens):
    """The (row, value) pairs after the leading name of a COLUMNS or RHS
    line: one or two, as MPS allows.  Other readers drop a third pair."""
    if len(tokens) % 2 == 0:
        raise ValueError(f"unpaired entry {tokens[-1]!r} after {tokens[0]}")
    if len(tokens) > 5:
        raise ValueError(f"more than two (row, value) pairs after {tokens[0]}")
    return zip(tokens[1::2], tokens[2::2])


def _number(text: str, infinity: float | None = None) -> float:
    """The float that ``text`` spells.  A NaN is an error, and so is an
    infinity other than ``infinity``, the bound that means "no bound", and
    so is syntax that ``float`` takes but other readers do not: ``1_0`` and
    digits other than ASCII ones, such as ``١٢``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"number {text!r} is not in plain ASCII syntax")
    value = float(text)
    if not (math.isfinite(value) or value == infinity):
        raise ValueError(f"number {text!r} is not finite")
    return value


class _Numbers(dict):
    """number text -> its finite float, converted and checked on first use."""

    def __missing__(self, text: str) -> float:
        value = self[text] = _number(text)
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
                    problem.upper[col] = _number(tokens[3], math.inf)
                elif btype == "LO":
                    problem.lower[col] = _number(tokens[3], -math.inf)
                elif btype == "FX":
                    problem.lower[col] = problem.upper[col] = _number(tokens[3])
                elif btype == "BV":
                    problem.integers.add(col)
                    problem.lower[col] = 0.0
                    problem.upper[col] = 1.0
                elif btype == "MI":
                    problem.lower[col] = -math.inf
                elif btype == "PL":
                    problem.upper[col] = math.inf
                elif btype == "FR":
                    problem.lower[col] = -math.inf
                    problem.upper[col] = math.inf
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

#: the relational operators; each two-character one comes before the
#: one-character ones, so that a regex alternation tries it first
_LP_SENSE = {"<=": "<=", "=<": "<=", ">=": ">=", "=>": ">=", "=": "=", "<": "<=", ">": ">="}
#: ``re.ASCII``: ``\d`` would also match digits such as "١"
_LP_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$", re.ASCII)
_LP_INFINITY = re.compile(r"^[+-]?inf(inity)?$", re.IGNORECASE)
#: a column or row name; one that starts with "." and a digit is a number
_LP_NAME = re.compile(
    r"(?!\.\d)[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.]*")
_LP_TOKEN = re.compile(
    rf"{'|'.join(_LP_SENSE)}|\+|-|:|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|{_LP_NAME.pattern}",
    re.ASCII)

#: the keywords, of one or two words, that open a section, and the section;
#: None for the CPLEX sections this reader does not support
_LP_SECTIONS = {
    "minimize": "objective", "minimise": "objective", "minimum": "objective",
    "min": "objective", "maximize": "objective", "maximise": "objective",
    "maximum": "objective", "max": "objective",
    "subject to": "constraints", "such that": "constraints", "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds", "bound": "bounds",
    "binaries": "binaries", "binary": "binaries", "bin": "binaries",
    "generals": "generals", "general": "generals", "gen": "generals",
    "semi-continuous": None, "semis": None, "semi": None, "sos": None,
    "lazy constraints": None, "user cuts": None,
    "end": "end",
}


def _lp_keyword(line: str) -> tuple[str, str] | None:
    """The section keyword that ``line`` starts with, lower-cased, and the
    text after it, or None if it starts with none."""
    words = line.split(None, 2)
    for n in (2, 1):
        keyword = " ".join(words[:n]).lower()
        if len(words) >= n and keyword in _LP_SECTIONS:
            return keyword, " ".join(words[n:])
    return None


def parse_lp(text: str) -> MipProblem:
    """Read a CPLEX LP file.  The text after a section keyword on its line
    belongs to that section; a line before the first section or in a
    section this reader does not support is an error."""
    problem = MipProblem()
    sections: dict[str, list[str]] = {
        "objective": [], "constraints": [], "bounds": [],
        "binaries": [], "generals": [],
    }
    current = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        header = _lp_keyword(line)
        if header is not None:
            keyword, line = header
            current = _LP_SECTIONS[keyword]
            if current == "end":
                break
            if current is None:
                raise ValueError(f"LP {keyword} sections are not supported")
            if current == "objective":
                problem.maximize = keyword.startswith("max")
            if not line:
                continue
        if current is None:
            raise ValueError(f"line {line!r} comes before the first section")
        sections[current].append(line)

    tokens = _lp_tokens(sections["objective"])
    i = 2 if len(tokens) > 1 and tokens[1] == ":" else 0
    # "obj: 0" is how an empty objective is written
    if tokens[i:] != ["0"]:
        problem.objective, i = _parse_lp_terms(tokens, i, problem)
        if i < len(tokens):
            raise ValueError(f"unexpected {tokens[i]!r} in the objective")

    tokens = _lp_tokens(sections["constraints"])
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
        problem.rows.append([coefs, sense, rhs_sign * _number(tokens[i])])
        i += 1

    for line in sections["bounds"]:
        _parse_lp_bound(line, problem)
    for line in sections["binaries"]:
        for name in line.split():
            col = _lp_column(name, line, problem)
            problem.integers.add(col)
            problem.lower.setdefault(col, 0.0)
            problem.upper.setdefault(col, 1.0)
    for line in sections["generals"]:
        for name in line.split():
            problem.integers.add(_lp_column(name, line, problem))
    return problem


def _lp_tokens(lines: list[str]) -> list[str]:
    """The tokens of a section's lines; a character that is neither blank
    nor part of a token is an error, never skipped."""
    for line in lines:
        stray = _LP_TOKEN.sub(" ", line).split()
        if stray:
            raise ValueError(f"unexpected character {stray[0][0]!r} in line {line!r}")
    return _LP_TOKEN.findall(" ".join(lines))


def _lp_column(name: str, line: str, problem: MipProblem) -> int:
    """The position of column ``name``, read from ``line`` of a Bounds,
    Binaries or Generals section; text that is not one name is an error,
    never a new column."""
    if not _LP_NAME.fullmatch(name):
        raise ValueError(f"{name!r} in line {line!r} is not a column name")
    return problem.touch(name)


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
            coef = _number(tokens[i])
            i += 1
        if (i == len(tokens) or tokens[i] in _LP_SENSE or tokens[i] in ("+", "-", ":")
                or _LP_NUMBER.match(tokens[i])):
            raise ValueError("a constant or a sign without a variable")
        col = problem.touch(tokens[i])
        coefs[col] = coefs.get(col, 0.0) + sign * coef
        i += 1
    return coefs, i


def _parse_lp_bound(line: str, problem: MipProblem) -> None:
    text = line.strip()
    free = re.match(r"^(\S+)\s+free$", text, re.IGNORECASE)
    if free:
        col = _lp_column(free.group(1), line, problem)
        problem.lower[col] = -math.inf
        problem.upper[col] = math.inf
        return
    parts = [part.strip() for part in re.split(f"({'|'.join(_LP_SENSE)})", text)]
    parts[1::2] = [_LP_SENSE[op] for op in parts[1::2]]
    # a number may have a space after its sign; a name is one word
    numbers = [part.replace(" ", "") for part in parts]
    if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
        col = _lp_column(parts[2], line, problem)
        problem.lower[col] = _number(numbers[0], -math.inf)
        problem.upper[col] = _number(numbers[4], math.inf)
    elif len(parts) == 3:
        op = parts[1]
        if _LP_NUMBER.match(numbers[0]) or _LP_INFINITY.match(numbers[0]):
            name, value, flip = parts[2], numbers[0], True
        else:
            name, value, flip = parts[0], numbers[2], False
        col = _lp_column(name, line, problem)
        if op == "=":
            problem.lower[col] = problem.upper[col] = _number(value)
        elif (op == "<=") != flip:
            problem.upper[col] = _number(value, math.inf)
        else:
            problem.lower[col] = _number(value, -math.inf)
    else:
        raise ValueError(f"cannot parse bound line {line!r}")


# ---------------------------------------------------------------------------
# solving


#: SciPy's bundled HiGHS module, and the names the shim uses from it
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_NAMES = ("HighsLp", "HighsOptions", "HighsStatus", "HighsModelStatus",
                "HighsVarType", "MatrixFormat", "ObjSense", "_Highs")


def _highs_core():
    """SciPy's bundled HiGHS module, or None if SciPy is not installed, has
    no such file, or the module lacks a name the shim uses.  It is loaded
    from its file next to the installed ``scipy``, which ``find_spec``
    locates without running ``scipy/__init__.py`` (that imports NumPy), and
    under its own name, so ``scipy/optimize/__init__.py`` never runs either,
    and a later ``import scipy.optimize`` takes it from ``sys.modules``
    instead of loading it twice.  The module itself imports NumPy only when
    a call takes or returns an array."""
    core = sys.modules.get(_HIGHS_MODULE)
    if core is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            return None
        folder = Path(scipy.origin).parent / "optimize" / "_highspy"
        paths = (folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((path for path in paths if path.is_file()), None)
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_MODULE] = core
        spec.loader.exec_module(core)
    return core if all(hasattr(core, name) for name in _HIGHS_NAMES) else None


def _columns(problem: MipProblem):
    """The rows' matrix as ``(start, index, value)`` lists, column by column
    with the row indices ascending within a column: its CSC form."""
    entries = [[] for _ in problem.var_order]
    for row, (coefs, _, _) in enumerate(problem.rows):
        for col, value in coefs.items():
            entries[col].append((row, value))
    start = [0, *itertools.accumulate(map(len, entries))]
    return (start, [row for column in entries for row, _ in column],
            [value for column in entries for _, value in column])


def _model(problem: MipProblem):
    """``(costs, lower, upper, integrality, row lower, row upper)`` as lists,
    as HiGHS takes them: the costs negated for a maximization, a missing
    bound infinite and the integrality 1 or 0."""
    columns = range(len(problem.var_order))
    sign = -1.0 if problem.maximize else 1.0
    return ([sign * problem.objective.get(col, 0.0) for col in columns],
            [problem.lower.get(col, 0.0) for col in columns],
            [problem.upper.get(col, math.inf) for col in columns],
            [int(col in problem.integers) for col in columns],
            [-math.inf if sense == "<=" else rhs for _, sense, rhs in problem.rows],
            [math.inf if sense == ">=" else rhs for _, sense, rhs in problem.rows])


def _highs(core):
    """A HiGHS instance with the shim's options."""
    options = core.HighsOptions()
    options.log_to_console = False
    # a zero gap: HiGHS's default 1e-4 stops short of the optimum the
    # cross-check against the built-in solver needs
    options.mip_rel_gap = 0.0
    highs = core._Highs()
    highs.passOptions(options)
    return highs


def _run(core, highs):
    """(status, objective, list of column values) of the model ``highs``
    holds; the status is HiGHS's model status unless it is optimal."""
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        return highs.modelStatusToString(status), None, None
    return "optimal", highs.getInfo().objective_function_value, highs.getSolution().col_value


def _answer(problem: MipProblem, status, objective, x):
    """(status_string, objective, {name: value}) from a solve of the
    problem with the costs of :func:`_model`."""
    if status != "optimal":
        return status, None, {}
    if problem.maximize:
        # "+ 0.0": a maximum of 0 is 0, not the -0.0 that negating 0.0 gives
        objective = -objective + 0.0
    return "optimal", objective, dict(zip(problem.var_order, x))


def solve_problem(problem: MipProblem):
    """Returns (status_string, objective, {name: value}) from HiGHS handed
    the shim's reading in memory: the lists of :func:`_model` and
    :func:`_columns`, which :func:`_solve_file` checks HiGHS's own reading
    of a file against, so both ways give the same answer.  A model without
    columns never reaches HiGHS; without SciPy's HiGHS module the solve
    fails with a status that names it."""
    cost, lower, upper, integers, row_lower, row_upper = _model(problem)
    if not cost:
        # without a column every row's activity is 0
        if all(bound <= 0.0 for bound in row_lower) and all(bound >= 0.0 for bound in row_upper):
            return "optimal", 0.0, {}
        return "infeasible: a row without columns does not hold at 0", None, {}

    core = _highs_core()
    if core is None:
        return f"HiGHS not found: SciPy has no usable {_HIGHS_MODULE}", None, {}
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _columns(problem)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.integrality_ = [core.HighsVarType(kind) for kind in integers]
    highs = _highs(core)
    if highs.passModel(lp) == core.HighsStatus.kError:
        return highs.modelStatusToString(core.HighsModelStatus.kModelError), None, {}
    return _answer(problem, *_run(core, highs))


def _solve_file(core, path: str, problem: MipProblem):
    """What :func:`solve_problem` returns, from HiGHS reading the model file
    at ``path`` itself, which imports no NumPy; or None if HiGHS refuses the
    file or reads a model other than ``problem``, the shim's reading of it.
    The models are the same when HiGHS holds the columns in the same order
    under the same names, with the same costs, bounds and integrality, the
    rows with the same bounds, the same column-wise matrix, the same
    objective sense and no objective constant.  A maximization is then
    turned into the minimization with negated costs that
    :func:`solve_problem` hands HiGHS, so both give the same answer."""
    highs = _highs(core)
    if highs.readModel(path) == core.HighsStatus.kError:
        return None
    cost, lower, upper, integers, row_lower, row_upper = _model(problem)
    sign = -1.0 if problem.maximize else 1.0
    sense = core.ObjSense.kMaximize if problem.maximize else core.ObjSense.kMinimize
    lp, columns = highs.getLp(), range(len(cost))
    matrix = lp.a_matrix_
    if not (lp.col_names_ == list(problem.var_order)
            and lp.sense_ == sense and lp.offset_ == 0.0
            and [sign * highs.getCol(col)[1] for col in columns] == cost
            and lp.col_lower_ == lower and lp.col_upper_ == upper
            and [int(kind) for kind in lp.integrality_ or [0] * len(cost)] == integers
            and lp.row_lower_ == row_lower and lp.row_upper_ == row_upper
            and matrix.format_ == core.MatrixFormat.kColwise
            and (matrix.start_, matrix.index_, matrix.value_) == _columns(problem)):
        return None
    if problem.maximize:
        highs.changeObjectiveSense(core.ObjSense.kMinimize)
        for col in columns:
            highs.changeColCost(col, cost[col])
    return _answer(problem, *_run(core, highs))


def _detect_format(path: str, text: str) -> str:
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
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2 or any(arg.startswith("-") for arg in argv):
        # argparse prints the help and the usage errors (exit 2); two plain
        # operands need no parser, whose import costs a few ms a child
        import argparse

        parser = argparse.ArgumentParser(
            prog="ucdispatch-mip",
            description="Solve an MPS or LP file with HiGHS and write 'name value' lines.")
        parser.add_argument("model", help="input model file (.mps or .lp)")
        parser.add_argument("solution", help="output solution file")
        args = parser.parse_args(argv)
        argv = [args.model, args.solution]
    model, solution = argv

    try:
        text = Path(model).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ucdispatch-mip: {exc}", file=sys.stderr)
        return 2

    try:
        problem = (parse_mps if _detect_format(model, text) == "mps" else parse_lp)(text)
    except (ValueError, IndexError) as exc:
        print(f"ucdispatch-mip: cannot parse {model}: {exc}", file=sys.stderr)
        return 2

    # a model without columns never reaches HiGHS, which calls it "Empty"
    core = _highs_core() if problem.var_order else None
    answer = core and _solve_file(core, model, problem)
    status, objective, values = answer or solve_problem(problem)
    if status != "optimal":
        print(f"ucdispatch-mip: solve failed: {status}", file=sys.stderr)
        return 1

    try:
        with open(solution, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"# objective {objective:.17g}\n")
            for name, value in values.items():
                handle.write(f"{name} {value:.17g}\n")
    except OSError as exc:
        print(f"ucdispatch-mip: {exc}", file=sys.stderr)
        return 2
    print(f"optimal objective {objective:.12g}")
    return 0


def _command():
    """The ``ucdispatch-mip`` command, as installed and as ``python -m``:
    :func:`main`, then the exit without the interpreter's teardown, which
    with HiGHS loaded costs about 10 ms of every solver child.  The solution
    file is closed by then, and stdout and stderr are flushed first; an
    exception in :func:`main` propagates as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _command()
