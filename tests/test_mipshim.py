"""The ucdispatch-mip command on well-formed and malformed MPS and LP files."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixture_instance, multi_unit_instance, random_instance, storage_instance
from test_writers import GOLDEN_INSTANCES, empty_model
from ucdispatch import mipshim
from ucdispatch.model import SENSES, ColumnIndex, MilpModel, RowBlock, RowMatrix, build_model
from ucdispatch.thinning import thin_all
from ucdispatch.writers import write_lp, write_mps

# min 3x + y  s.t.  x + y >= 2: the optimum is 2 (y = 2)
GOOD_MPS = """\
NAME          demo
ROWS
 N  obj
 G  c1
COLUMNS
    x         obj       3              c1        1
    y         obj       1              c1        1
RHS
    rhs       c1        2
ENDATA
"""


def run_shim(tmp_path, text, name="model.mps"):
    model = tmp_path / name
    model.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    solution = tmp_path / "model.sol"
    return mipshim.main([str(model), str(solution)]), solution


def test_good_model_solves(tmp_path, capsys, both_solve_paths):
    code, solution = run_shim(tmp_path, GOOD_MPS)
    assert code == 0
    assert "optimal objective 2" in capsys.readouterr().out
    assert solution.read_text().splitlines()[0] == "# objective 2"


@pytest.mark.parametrize("old, new", [
    # y's entry on a row ROWS never declares: dropping it gave objective 6
    ("    y         obj       1              c1        1",
     "    y         obj       1              r9        1"),
    # a trailing row name without its value
    ("    y         obj       1              c1        1",
     "    y         obj       1              c1"),
    # a right-hand side on an undeclared row: dropping it gave objective 0
    ("    rhs       c1        2", "    rhs       r9        2"),
    # an unknown row type
    (" G  c1", " X  c1"),
    # sections the shim does not read: each was skipped, solving another model
    ("RHS\n", "RANGES\n    rng       c1        1\nRHS\n"),
    ("RHS\n", "OBJNAME\n    obj\nRHS\n"),
    ("RHS\n", "SOS\n S1 SOS       s1        1\n    s1        x         1\nRHS\n"),
    ("RHS\n", "QUADOBJ\n    x         x         1\nRHS\n"),
    # an objective sense that is neither MAX nor MIN
    ("ROWS\n", "OBJSENSE\n    SIDEWAYS\nROWS\n"),
    # a row declared twice: the parent emitted it as two rows
    (" G  c1", " G  c1\n L  c1"),
    # a data line under NAME
    ("ROWS\n", "    stray\nROWS\n"),
    # a right-hand side on the objective row: dropped, it reported 2 where
    # other readers add the constant 5 and report 7
    ("    rhs       c1        2", "    rhs       c1        2              obj       -5"),
    # a third (row, value) pair, which MPS does not allow and HiGHS drops
    ("    y         obj       1              c1        1",
     "    y         obj       1              c1        1              obj       1"),
    ("    rhs       c1        2", "    rhs       c1        2  c1  2  c1  2"),
], ids=["undeclared-column-row", "unpaired-token", "undeclared-rhs-row",
        "unknown-row-type", "ranges", "objname", "sos", "quadobj",
        "unknown-objsense", "duplicate-row", "stray-line", "objective-rhs",
        "three-column-pairs", "three-rhs-pairs"])
def test_malformed_mps_is_a_parse_error(tmp_path, capsys, old, new):
    assert old in GOOD_MPS
    code, solution = run_shim(tmp_path, GOOD_MPS.replace(old, new))
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err
    assert not solution.exists()


# max x + y  s.t.  x + y <= 4,  x, y <= 3: the optimum is 4 (0 if minimised)
MAX_MPS = """\
NAME          demo
{objsense}ROWS
 N  obj
 L  c1
COLUMNS
    x         obj       1              c1        1
    y         obj       1              c1        1
RHS
    rhs       c1        4
BOUNDS
 UP BND       x         3
 UP BND       y         3
ENDATA
"""


@pytest.mark.parametrize("objsense, optimum", [
    ("OBJSENSE\n    MAX\n", 4), ("OBJSENSE MAX\n", 4),
    ("OBJSENSE\n    maximize\n", 4), ("OBJSENSE MINIMIZE\n", 0), ("", 0),
], ids=["max-block", "max-one-line", "maximize-block", "minimize-one-line", "none"])
def test_objsense_is_honoured(tmp_path, capsys, both_solve_paths, objsense, optimum):
    code, solution = run_shim(tmp_path, MAX_MPS.format(objsense=objsense))
    assert code == 0
    assert f"optimal objective {optimum}\n" == capsys.readouterr().out
    assert solution.read_text().splitlines()[0] == f"# objective {optimum}"


@pytest.mark.parametrize("write, name", [(write_mps, "model.mps"), (write_lp, "model.lp")],
                         ids=["mps", "lp"])
def test_empty_model_solves(tmp_path, capsys, write, name):
    # answered without HiGHS, which calls a model without columns "Empty"
    code, solution = run_shim(tmp_path, write(empty_model()), name)
    assert code == 0
    assert capsys.readouterr().out == "optimal objective 0\n"
    assert solution.read_text() == "# objective 0\n"


@pytest.mark.parametrize("rhs, code", [("2", 1), ("-2", 0)])
def test_row_without_columns_must_hold_at_zero(tmp_path, capsys, rhs, code):
    text = f"NAME demo\nROWS\n N  obj\n G  c1\nRHS\n    rhs  c1  {rhs}\nENDATA\n"
    assert run_shim(tmp_path, text)[0] == code
    assert ("solve failed" in capsys.readouterr().err) == (code == 1)


# min 2x + y with x >= 1, y <= 4, z binary and no constraint row: the optimum is 2
ROWLESS_MPS = """\
NAME          rowless
ROWS
 N  obj
COLUMNS
    x         obj       2
    y         obj       1
BOUNDS
 LO BND       x         1
 UP BND       y         4
 BV BND       z
ENDATA
"""


def test_model_without_rows_solves(tmp_path, capsys, both_solve_paths):
    code, solution = run_shim(tmp_path, ROWLESS_MPS)
    assert code == 0
    assert capsys.readouterr().out == "optimal objective 2\n"
    assert solution.read_text().splitlines() == ["# objective 2", "x 1", "y 0", "z 0"]


def test_non_utf8_model_file_exits_two(tmp_path, capsys):
    code, solution = run_shim(tmp_path, GOOD_MPS.encode("utf-8").replace(b"demo", b"d\xe9mo"))
    assert code == 2
    assert "utf-8" in capsys.readouterr().err
    assert not solution.exists()


@pytest.mark.parametrize("text", [
    "", "\n", "a", "a\n", "a\nb", "a\n\n\nb\n", "a\r\nb\r\n", "a\rb\r", "\r\n\r\n",
    "a\x0cb\n\x0c\n", "ab\r\ncd\r\n\r\nef\rg\n\nh", " x  y  1\r\n x  z  2\n",
], ids=["empty", "lf", "one-line", "lf-ended", "two-lines", "blank-lines", "crlf",
        "lone-cr", "crlf-only", "form-feed", "mixed", "mps-like"])
def test_lines_split_as_splitlines(text):
    # every block size up to the whole text, so that a block boundary falls
    # between each "\r" and its "\n" at least once
    for block in range(1, len(text) + 2):
        assert list(mipshim._lines(text, block)) == text.splitlines(), block


def columns_mps(columns, rows=" N  obj\n G  c1\n L  c2\n"):
    return f"NAME demo\nROWS\n{rows}COLUMNS\n{columns}RHS\n    rhs  c1  1\nENDATA\n"


def by_name(problem):
    """The objective, each row's coefficients and the integer columns, by name."""
    names = list(problem.var_order)
    return (named(problem.objective, names),
            [named(coefs, names) for coefs, _, _ in problem.rows],
            {names[col] for col in problem.integers})


@pytest.mark.parametrize("columns, objective, rows, integers", [
    # the column shares the last row's name; its first line is for that row
    ("    c2  c2  4\n    c2  obj  3\n", {"c2": 3.0}, [{}, {"c2": 4.0}], set()),
    # x's lines are not adjacent
    ("    x  c1  1\n    y  c1  2\n    x  obj  3\n    x  c2  4\n",
     {"x": 3.0}, [{"x": 1.0, "y": 2.0}, {"x": 4.0}], set()),
    # a (column, row) entry given twice, adjacent and not, is summed
    ("    x  c1  1\n    x  c1  2\n    y  c1  1\n    x  c1  4\n",
     {}, [{"x": 7.0, "y": 1.0}, {}], set()),
    # 5-token lines, then 3-token lines for the same column
    ("    x  obj  3  c1  1\n    x  c2  4\n    y  c1  1  c2  2\n    y  obj  5\n",
     {"x": 3.0, "y": 5.0}, [{"x": 1.0, "y": 1.0}, {"x": 4.0, "y": 2.0}], set()),
    # 'MARKER' after the column's own name, and as the first token
    ("    x  obj  3\n    x  'INTORG'  'MARKER'\n    x  c1  1\n"
     "    'MARKER'  x  'INTEND'\n    y  c1  2\n    y  c2  1\n",
     {"x": 3.0}, [{"x": 1.0, "y": 2.0}, {"y": 1.0}], {"x"}),
], ids=["named-like-last-row", "non-adjacent", "duplicate-entry", "five-tokens",
        "marker-positions"])
def test_columns_entries(columns, objective, rows, integers):
    problem = mipshim.parse_mps(columns_mps(columns))
    assert by_name(problem) == (objective, rows, integers)


def test_undeclared_row_on_a_same_column_line_exits_two(tmp_path, capsys):
    code, solution = run_shim(tmp_path, columns_mps("    x  obj  3\n    x  r9  1\n"))
    assert code == 2
    assert "r9" in capsys.readouterr().err
    assert not solution.exists()


X_LINE = "    x         obj       3              c1        1"
Y_LINE = "    y         obj       1              c1"


@pytest.mark.parametrize("text, number", [
    # a milp ValueError traceback, exit 1
    (GOOD_MPS.replace(X_LINE, "    x         obj       nan            c1        1"), "nan"),
    # exit 0, writing x 0 and y 2: an answer to an undefined model
    (GOOD_MPS.replace(X_LINE, "    x         obj       3              c1        nan"), "nan"),
    # the rest were "solve failed: ... Model error", exit 1
    (GOOD_MPS.replace("    rhs       c1        2", "    rhs       c1        NaN"), "NaN"),
    (GOOD_MPS.replace(X_LINE, "    x         obj       3              c1        inf"), "inf"),
    (GOOD_MPS.replace(X_LINE, "    x         obj       -1e400         c1        1"), "-1e400"),
    (GOOD_MPS.replace("ENDATA", "BOUNDS\n FX BND       x         nan\nENDATA"), "nan"),
    # an infinite upper bound means "no bound"; a lower one does not
    (GOOD_MPS.replace("ENDATA", "BOUNDS\n LO BND       x         inf\nENDATA"), "inf"),
], ids=["objective", "coefficient", "rhs", "inf-coefficient", "overflow", "fixed-bound",
        "inf-lower-bound"])
def test_non_finite_mps_number_exits_two(tmp_path, capsys, text, number):
    code, solution = run_shim(tmp_path, text)
    assert code == 2
    assert f"cannot parse {tmp_path / 'model.mps'}: number {number!r} is not finite" in (
        capsys.readouterr().err)
    assert not solution.exists()


@pytest.mark.parametrize("bounds", [
    " UP BND       x         inf\n UP BND       y         3\n",
    " LO BND       x         -Infinity\n UP BND       y         3\n UP BND       x         3\n",
], ids=["inf-upper", "minus-inf-lower"])
def test_infinite_mps_bound_means_no_bound(tmp_path, capsys, both_solve_paths, bounds):
    text = MAX_MPS.format(objsense="OBJSENSE MAX\n").replace(
        " UP BND       x         3\n UP BND       y         3\n", bounds)
    assert run_shim(tmp_path, text)[0] == 0
    assert capsys.readouterr().out == "optimal objective 4\n"


# min {sign}x  s.t.  -5 <= x <= 5, as two rows
BOUNDS_MPS = """\
NAME demo
ROWS
 N  obj
 G  c1
 L  c2
COLUMNS
    x  obj  {sign}1  c1  1
    x  c2  1
RHS
    rhs  c1  -5  c2  5
BOUNDS
{bounds}ENDATA
"""


@pytest.mark.parametrize("sign, bounds, optimum", [
    ("", "", 0), ("", " MI BND x\n", -5), ("", " FR BND x\n", -5),
    ("-", " UP BND x 3\n", -3), ("-", " UP BND x 3\n PL BND x\n", -5),
    ("-", " UP BND x 3\n FR BND x\n", -5),
], ids=["default", "minus-infinity", "free", "upper", "plus-infinity", "free-after-upper"])
def test_mps_bound_types(tmp_path, capsys, both_solve_paths, sign, bounds, optimum):
    code, _ = run_shim(tmp_path, BOUNDS_MPS.format(sign=sign, bounds=bounds))
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


def test_unsupported_mps_bound_type_exits_two(tmp_path, capsys):
    code, solution = run_shim(tmp_path, BOUNDS_MPS.format(sign="", bounds=" LI BND x 1\n"))
    assert code == 2
    assert "unsupported bound type LI" in capsys.readouterr().err
    assert not solution.exists()


# min x + y  s.t.  x + y >= 2: the optimum is 2
GOOD_LP = """\
Minimize
 obj: x + y
Subject To
 c1: x + y >= 2
End
"""


def test_good_lp_solves(tmp_path, capsys, both_solve_paths):
    code, solution = run_shim(tmp_path, GOOD_LP, "model.lp")
    assert code == 0
    assert "optimal objective 2" in capsys.readouterr().out


def test_empty_lp_objective_solves(tmp_path, capsys, both_solve_paths):
    # "obj: 0" is what write_lp writes for an empty objective
    code, _ = run_shim(tmp_path, GOOD_LP.replace("obj: x + y", "obj: 0"), "model.lp")
    assert code == 0
    assert "optimal objective 0" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [
    # a constant on the left: dropping it solved to 3
    ("c1: x + y >= 2", "c1: x + 2 >= 3"),
    # two variables with no operator between them: read as x + y
    ("c1: x + y >= 2", "c1: x y >= 2"),
    # a constant in the objective: dropping it reported 2
    ("obj: x + y", "obj: x + y + 3"),
], ids=["constraint-constant", "no-operator", "objective-constant"])
def test_malformed_lp_is_a_parse_error(tmp_path, capsys, old, new):
    assert old in GOOD_LP
    code, solution = run_shim(tmp_path, GOOD_LP.replace(old, new), "model.lp")
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err
    assert not solution.exists()


@pytest.mark.parametrize("old, new, number", [
    # read as a NaN bound
    ("End", "Bounds\n x <= nan\nEnd", "nan"),
    ("End", "Bounds\n nan <= y <= 3\nEnd", "nan"),
    ("End", "Bounds\n x = -inf\nEnd", "-inf"),
    ("obj: x + y", "obj: 1e999 x + y", "1e999"),
    ("c1: x + y >= 2", "c1: x + y >= -1e999", "1e999"),
], ids=["nan-upper", "nan-lower", "fixed-at-infinity", "overflowing-coefficient",
        "overflowing-rhs"])
def test_non_finite_lp_number_exits_two(tmp_path, capsys, old, new, number):
    code, solution = run_shim(tmp_path, GOOD_LP.replace(old, new), "model.lp")
    assert code == 2
    assert f"number {number!r} is not finite" in capsys.readouterr().err
    assert not solution.exists()


@pytest.mark.parametrize("text, name, message", [
    # Python's float reads "1_0" as 10, HiGHS reads 1: the shim solved to
    # 0.2 where HiGHS, given the same file, solves to 2
    (GOOD_MPS.replace(f"{Y_LINE}        1", f"{Y_LINE}        1_0"), "model.mps",
     "number '1_0' is not in plain ASCII syntax"),
    # the rest were read as 12, 3 or 1 and solved, exit 0
    (GOOD_MPS.replace("    rhs       c1        2", "    rhs       c1        \u0661\u0662"),
     "model.mps", "number '\u0661\u0662' is not in plain ASCII syntax"),
    (GOOD_MPS.replace("ENDATA", "BOUNDS\n UP BND       x         \uff13\nENDATA"), "model.mps",
     "number '\uff13' is not in plain ASCII syntax"),
    (GOOD_LP.replace("obj: x + y", "obj: \u0661\u0662 x + y"), "model.lp",
     "unexpected character '\u0661'"),
    (GOOD_LP.replace(">= 2", ">= \u0661"), "model.lp", "unexpected character '\u0661'"),
    (GOOD_LP.replace("End", "Bounds\n x <= \u0661\u0662\nEnd"), "model.lp",
     "number '\u0661\u0662' is not in plain ASCII syntax"),
    (GOOD_LP.replace("End", "Bounds\n x <= 1_0\nEnd"), "model.lp",
     "number '1_0' is not in plain ASCII syntax"),
], ids=["mps-underscore", "mps-arabic-indic-rhs", "mps-fullwidth-bound",
        "lp-arabic-indic-coefficient", "lp-arabic-indic-rhs", "lp-arabic-indic-bound",
        "lp-underscore-bound"])
def test_number_only_python_reads_exits_two(tmp_path, capsys, text, name, message):
    code, solution = run_shim(tmp_path, text, name)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not solution.exists()


@pytest.mark.parametrize("objective, bound, optimum", [
    # a name ending in "inf" was taken for a number: exit 2
    ("- xinf", "xinf <= 5", -5),
    ("- xinf", "5 >= xinf", -5),
    ("- xinf", "-inf <= xinf <= 5", -5),
    ("xinf", "-inf <= xinf", -3),
    ("xinf", "-Infinity <= xinf <= +INF", -3),
], ids=["name-ending-in-inf", "flipped", "minus-inf-range", "minus-inf-lower",
        "infinity-words"])
def test_lp_bounds(tmp_path, capsys, both_solve_paths, objective, bound, optimum):
    text = f"Minimize\n obj: {objective}\nSubject To\n c1: xinf >= -3\nBounds\n {bound}\nEnd\n"
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


@pytest.mark.parametrize("objective, bound, optimum", [
    # each exited 2: "could not convert string to float: '<4'" (or '>1'),
    # or "'< x' ... is not a column name"
    ("- x", "x =< 4", -4), ("x", "x => 1", 1), ("x", "1 =< x", 1), ("- x", "4 => x", -4),
    ("x", "1 =< x =< 4", 1), ("- x", "1 =< x =< 4", -4),
], ids=["upper", "lower", "flipped-lower", "flipped-upper", "range-low", "range-high"])
def test_lp_bounds_with_equals_first(tmp_path, capsys, both_solve_paths, objective, bound,
                                     optimum):
    text = f"Minimize\n obj: {objective}\nSubject To\n c1: x + y <= 10\nBounds\n {bound}\nEnd\n"
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


@pytest.mark.parametrize("objective, row, bound, optimum", [
    # each exited 2: "unexpected character '<'" (or '>') in a row, or
    # "cannot parse bound line" in a bound
    ("- x - y", "x + y < 2", "", -2), ("x + y", "x + y > 2", "", 2),
    ("- x", "x + y <= 10", "x < 4", -4), ("x", "x + y <= 10", "x > 1", 1),
    ("x", "x + y <= 10", "1 < x < 4", 1), ("- x", "x + y <= 10", "4 > x", -4),
], ids=["row-less", "row-greater", "upper", "lower", "range", "flipped-upper"])
def test_lp_strict_operators_read_as_weak(tmp_path, capsys, both_solve_paths, objective,
                                          row, bound, optimum):
    text = f"Minimize\n obj: {objective}\nSubject To\n c1: {row}\nBounds\n {bound}\nEnd\n"
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


@pytest.mark.parametrize("old, new, char", [
    # read as "3 x + y >= 2": it solved to 2, exit 0
    ("c1: x + y >= 2", "c1: 3 * x + y >= 2", "*"),
    ("c1: x + y >= 2", "c1: x + y[1] >= 2", "["),
    ("c1: x + y >= 2", "c1: x + y] >= 2", "]"),
    ("obj: x + y", "obj: x ^ 2 + y", "^"),
    ("obj: x + y", "obj: x / 2 + y", "/"),
], ids=["times", "open-bracket", "close-bracket", "power", "divide"])
def test_lp_character_outside_every_token_exits_two(tmp_path, capsys, old, new, char):
    code, solution = run_shim(tmp_path, GOOD_LP.replace(old, new), "model.lp")
    assert code == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert "cannot parse" in err
    assert f"unexpected character {char!r} in line {new.strip()!r}" in err
    assert not solution.exists()


@pytest.mark.parametrize("text, optimum", [
    # the objective after the keyword was dropped: optimum 0
    ("Minimize obj: x + 2 y\nSubject To\n c1: x + y >= 2\nEnd\n", 2),
    # the row after the keyword was dropped: optimum 0
    ("Minimize\n obj: x + 2 y\nSubject To c1: x + y >= 2\nEnd\n", 2),
    # "Such That" was a parse error, and "such to" a header
    ("Minimize\n obj: x + 2 y\nSuch That\n c1: x + y >= 2\nEnd\n", 2),
    # "Maximum" was no header, so its objective was dropped: optimum 0
    ("Maximum\n obj: x + y\nSubject To\n c1: x + y <= 4\nEnd\n", 4),
    ("minimum\n obj: x + 2 y\nst\n c1: x + y >= 2\nEnd\n", 2),
], ids=["objective-on-header", "row-on-header", "such-that", "maximum", "minimum"])
def test_lp_headers(tmp_path, capsys, both_solve_paths, text, optimum):
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


@pytest.mark.parametrize("row, section, optimum", [
    ("2 x >= 3", "Generals\n x", 2), ("x >= -5", "Bounds\n x free", -5),
    ("2 x >= -11", "Bounds\n x FREE\nGenerals\n x", -5),
], ids=["generals", "free", "free-general"])
def test_lp_generals_and_free(tmp_path, capsys, both_solve_paths, row, section, optimum):
    text = f"Minimize\n obj: x\nSubject To\n c1: {row}\n{section}\nEnd\n"
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


@pytest.mark.parametrize("section, line, name", [
    # both solved another model, exit 0: one with a column "-x" at -4 and
    # objective -10, one with a column "2x"
    ("Bounds\n -x >= -4", "-x >= -4", "-x"),
    ("Bounds\n 2 x <= 4", "2 x <= 4", "2 x"),
    # read as a column "xy"
    ("Bounds\n 0 <= x y <= 4", "0 <= x y <= 4", "x y"),
    ("Bounds\n -x free", "-x free", "-x"),
    ("Binaries\n x +y", "x +y", "+y"),
    ("Generals\n 3x", "3x", "3x"),
], ids=["negated-name", "coefficient", "two-words", "negated-free", "signed-binary",
        "numbered-general"])
def test_lp_entry_that_is_no_name_exits_two(tmp_path, capsys, section, line, name):
    text = f"Minimize\n obj: - x\nSubject To\n c1: x + y <= 10\n{section}\nEnd\n"
    code, solution = run_shim(tmp_path, text, "model.lp")
    assert code == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert "cannot parse" in err and f"{name!r} in line {line!r} is not a column name" in err
    assert not solution.exists()


@pytest.mark.parametrize("text", [
    GOOD_MPS, GOOD_MPS.replace("NAME          demo\n", ""), GOOD_LP,
], ids=["name-first", "rows-first", "lp"])
def test_format_of_a_file_without_extension(tmp_path, capsys, both_solve_paths, text):
    # MPS when the first word is NAME or ROWS, LP otherwise; each text is a
    # parse error in the other format
    code, _ = run_shim(tmp_path, text, "model")
    assert code == 0
    assert capsys.readouterr().out == "optimal objective 2\n"


@pytest.mark.parametrize("text, message", [
    # "Semi-continuous" was read as a column of Generals
    (GOOD_LP.replace("End", "Generals\n y\nSemi-continuous\n x\nEnd"),
     "semi-continuous sections are not supported"),
    (GOOD_LP.replace("End", "Semis\n x\nEnd"), "semis sections are not supported"),
    (GOOD_LP.replace("End", "SOS\n s1: S1:: x:1 y:2\nEnd"), "sos sections are not supported"),
    # a line before the first section was dropped
    ("x + y\n" + GOOD_LP, "line 'x + y' comes before the first section"),
    ("such to\n" + GOOD_LP, "line 'such to' comes before the first section"),
], ids=["semi-continuous", "semis", "sos", "before-the-first-section", "such-to"])
def test_lp_text_outside_a_known_section_exits_two(tmp_path, capsys, text, message):
    code, solution = run_shim(tmp_path, text, "model.lp")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not solution.exists()


def named(coefs, names):
    return {names[col]: coef for col, coef in coefs.items() if coef != 0.0}


@pytest.mark.parametrize("make", [fixture_instance, storage_instance, multi_unit_instance],
                         ids=["fixture", "storage", "multi-unit"])
def test_reads_back_the_emitted_model(make):
    instance = make()
    model = build_model(instance, thin_all(instance))
    rows, names = model.rows, model.columns.names
    expected_rows = [(dict((names[col], coef) for col, coef in rows.row(i)),
                      SENSES[code], rhs)
                     for i, (code, rhs) in enumerate(zip(rows.sense.tolist(), rows.rhs.tolist()))]
    v_columns = {name for (kind, _, _), name in zip(model.columns.keys, names) if kind == "v"}
    for problem in (mipshim.parse_mps(write_mps(model)), mipshim.parse_lp(write_lp(model))):
        read_names = list(problem.var_order)
        assert [(named(coefs, read_names), sense, rhs)
                for coefs, sense, rhs in problem.rows] == expected_rows
        assert named(problem.objective, read_names) == named(model.objective, names)
        assert not problem.maximize
        assert {read_names[col] for col in problem.integers} == v_columns


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_units=st.integers(1, 2), T=st.integers(1, 4),
       storage=st.booleans())
def test_both_formats_solve_to_the_same_objective(seed, n_units, T, storage):
    instance = random_instance(np.random.default_rng(seed), n_units, T, with_storage=storage)
    model = build_model(instance, thin_all(instance))
    problems = mipshim.parse_mps(write_mps(model)), mipshim.parse_lp(write_lp(model))
    assert by_name(problems[0]) == by_name(problems[1])
    mps, lp = (mipshim.solve_problem(problem) for problem in problems)
    assert mps[0] == lp[0] == "optimal"
    # the readers number the columns in another order, so HiGHS takes
    # another path, and its MIP feasibility tolerance of 1e-6 lets the
    # objectives differ by about that much: 2 of 300 seeded instances
    # were 1e-6 apart, 1.1e-10 relative
    assert lp[1] == pytest.approx(mps[1], rel=1e-9)


def unread_column_model():
    """min cp_1_1 s.t. cp_1_1 >= 10 v_1_1 and v_1_1 >= 0.5 with v_1_1
    binary, the last column: the optimum is 10.  No row and no objective
    term reads p_1_1."""
    columns = ColumnIndex.from_keys([("p", 1, 1), ("cp", 1, 1), ("v", 1, 1)])
    rows = RowMatrix.from_blocks([
        RowBlock("cost", [1], ">=", 0.0, [([1], 1.0), ([2], -10.0)]),
        RowBlock("on", [1], ">=", 0.5, [([2], 1.0)]),
    ])
    return MilpModel(columns, rows, {1: 1.0})


@pytest.mark.parametrize("write, name", [(write_mps, "model.mps"), (write_lp, "model.lp")],
                         ids=["mps", "lp"])
def test_unread_column_reads_back(tmp_path, capsys, both_solve_paths, write, name):
    # the LP file dropped p_1_1: its read-back had two columns, the MPS one three
    code, solution = run_shim(tmp_path, write(unread_column_model()), name)
    assert code == 0
    assert capsys.readouterr().out == "optimal objective 10\n"
    values = dict(line.split() for line in solution.read_text().splitlines()[1:])
    assert values == {"p_1_1": "0", "cp_1_1": "10", "v_1_1": "1"}


def test_shim_imports_nothing_from_the_package():
    # the shim is an independent cross-check of the builder and the writers;
    # its one solver is the HiGHS module it loads by file, so no import at
    # any level, a function's included, brings in NumPy or scipy.optimize
    tree = ast.parse(inspect.getsource(mipshim))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("ucdispatch"), node.module
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ucdispatch") for alias in node.names)
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(re.match(r"(numpy|scipy\.optimize)(\.|$)", name) for name in names), names


# min 3x + y  s.t.  x + y >= 2 with x, y <= 0.5 and x integer: no point
INFEASIBLE_MPS = GOOD_MPS.replace(
    X_LINE, f"    M  'MARKER'  'INTORG'\n{X_LINE}\n    M  'MARKER'  'INTEND'").replace(
    "ENDATA", "BOUNDS\n UP BND       x         0.5\n UP BND       y         0.5\nENDATA")
# min 3x - y  s.t.  x + y >= 2: y grows without bound
UNBOUNDED_MPS = GOOD_MPS.replace("    y         obj       1", "    y         obj       -1")


@pytest.mark.parametrize("path", ["highs", "in-memory"])
@pytest.mark.parametrize("text, status", [(INFEASIBLE_MPS, "infeasible"),
                                          (UNBOUNDED_MPS, "unbounded")],
                         ids=["infeasible", "unbounded"])
def test_failed_solve_exits_one(tmp_path, capsys, monkeypatch, text, status, path):
    # "highs": HiGHS reads the file itself; "in-memory": it is handed the
    # shim's reading, as when it refuses the file
    if path == "in-memory":
        monkeypatch.setattr(mipshim, "_solve_file", lambda *args: None)
    code, solution = run_shim(tmp_path, text)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ucdispatch-mip: solve failed: ") and status in err.lower()
    assert not solution.exists()


@pytest.mark.parametrize("write, name", [(write_mps, "model.mps"), (write_lp, "model.lp")],
                         ids=["mps", "lp"])
@pytest.mark.parametrize("label", sorted(GOLDEN_INSTANCES))
def test_both_paths_write_the_same_solution(tmp_path, monkeypatch, label, write, name):
    # HiGHS reading the file itself against HiGHS handed the shim's reading
    instance = GOLDEN_INSTANCES[label]()
    text = write(build_model(instance, thin_all(instance)))
    solve_file, read = mipshim._solve_file, []

    def from_file(*args):
        answer = solve_file(*args)
        read.append(answer is not None)
        return answer

    solutions = []
    for path, route in (("file", from_file), ("in-memory", lambda *args: None)):
        monkeypatch.setattr(mipshim, "_solve_file", route)
        (tmp_path / path).mkdir()
        code, solution = run_shim(tmp_path / path, text, name)
        assert code == 0
        solutions.append(solution.read_bytes())
    assert read == [True]
    assert solutions[0] == solutions[1]


@pytest.mark.parametrize("text", [
    GOOD_MPS, INFEASIBLE_MPS,
    # a zero entry, a column on no row and rows out of column order
    columns_mps("    y  c2  1  c1  2\n    z  obj  1\n    x  c1  0  c2  4\n    y  obj  3\n"),
], ids=["good", "integer", "zero-and-empty"])
def test_column_wise_matrix_is_milps(text):
    # the shim hands HiGHS the CSC form of this CSR matrix, as milp does,
    # explicit zeros included
    from scipy import sparse

    problem = mipshim.parse_mps(text)
    entries = [(i, col, value) for i, (coefs, _, _) in enumerate(problem.rows)
               for col, value in coefs.items()]
    rows, cols, values = zip(*entries)
    csc = sparse.csc_array(sparse.csr_matrix(
        (values, (rows, cols)), shape=(len(problem.rows), len(problem.var_order))))
    start, index, value = mipshim._columns(problem)
    assert start == csc.indptr.tolist()
    assert index == csc.indices.tolist()
    assert np.array(value).tobytes() == csc.data.tobytes()


def test_scipy_without_the_highs_module_fails_the_solve(tmp_path, capsys, monkeypatch):
    # no second solver: the status names the missing module
    monkeypatch.setattr(mipshim, "_highs_core", lambda: None)
    code, solution = run_shim(tmp_path, GOOD_MPS)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ucdispatch-mip: solve failed: ") and mipshim._HIGHS_MODULE in err
    assert not solution.exists()
    # a model without columns never needs HiGHS
    code, solution = run_shim(tmp_path, write_mps(empty_model()))
    assert code == 0
    assert solution.read_text() == "# objective 0\n"


ORDER_STEPS = {
    "shim": "print(mipshim.solve_problem(mipshim.parse_mps(sys.stdin.read()))[:2])",
    "milp": "from scipy.optimize import milp; "
            "print(milp(c=[3, 1], constraints=([[1, 1]], 2, float('inf'))).fun)",
}


@pytest.mark.parametrize("order", [("shim", "milp"), ("milp", "shim")],
                         ids=["shim-first", "milp-first"])
def test_either_import_order_works(order):
    # scipy.optimize and the shim share one HiGHS module: loaded twice, its
    # types would be registered twice
    code = "\n".join(["import sys", "from ucdispatch import mipshim",
                      *(ORDER_STEPS[step] for step in order)])
    run = subprocess.run([sys.executable, "-c", code], input=GOOD_MPS,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = {"shim": "('optimal', 2.0)", "milp": "2.0"}
    assert run.stdout.splitlines() == [printed[step] for step in order]


def imported_modules(args):
    """The modules ``python -X importtime *args`` imports, and its run."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, timeout=120)
    return {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}, run


def test_shim_child_does_not_import_scipy_optimize(tmp_path):
    # HiGHS reads each of these files itself, so the child imports neither
    # scipy.optimize, whose package import cost about 0.7 s of every
    # external solve, nor NumPy, which took about half of the rest; the
    # fourth golden instance takes HiGHS seconds to solve.  Nor does it
    # import dataclasses (with inspect, about 12 ms a child) or argparse,
    # beyond what site imports into a bare interpreter in the same environment
    bare, _ = imported_modules(["-c", "pass"])
    for label in ("fixture", "storage", "multi-unit"):
        instance = GOLDEN_INSTANCES[label]()
        model = build_model(instance, thin_all(instance))
        for write, parse, name in ((write_mps, mipshim.parse_mps, "model.mps"),
                                   (write_lp, mipshim.parse_lp, "model.lp")):
            text = write(model)
            path = tmp_path / label / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            imported, run = imported_modules(
                ["-m", "ucdispatch.mipshim", str(path), str(tmp_path / label / "model.sol")])
            assert run.returncode == 0, run.stderr
            status, objective, _ = mipshim.solve_problem(parse(text))
            assert status == "optimal", (label, name)
            if label == "fixture":
                assert objective == 2700
            assert run.stdout == f"optimal objective {objective:.12g}\n", (label, name)
            assert not imported & {"numpy", "scipy", "scipy.optimize"}, (label, name)
            assert not (imported - bare) & {"dataclasses", "inspect", "argparse"}, (label, name)


@pytest.mark.parametrize("text, name, read", [
    # HiGHS picks the format by the extension only
    (GOOD_MPS, "model", False),
    # HiGHS keeps the first of two bounds on x, UP 3 before FR
    (BOUNDS_MPS.format(sign="-", bounds=" UP BND x 3\n FR BND x\n"), "model.mps", True),
], ids=["refused", "read-differently"])
def test_file_that_highs_does_not_read_as_the_shim_is_solved_in_memory(
        tmp_path, capsys, both_solve_paths, text, name, read):
    core = mipshim._highs_core()
    highs = mipshim._highs(core)
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert (highs.readModel(str(tmp_path / name)) != core.HighsStatus.kError) == read
    problem = mipshim.parse_mps(text)
    assert mipshim._solve_file(core, str(tmp_path / name), problem) is None
    code, solution = run_shim(tmp_path, text, name)
    assert code == 0
    status, objective, values = mipshim.solve_problem(problem)
    assert capsys.readouterr().out == f"optimal objective {objective:.12g}\n"
    assert solution.read_text() == "".join(
        [f"# objective {objective:.17g}\n", *(f"{col} {x:.17g}\n" for col, x in values.items())])


def run_child(argv):
    """The ``-m`` child's run, its stdout block-buffered into the pipe even
    where PYTHONUNBUFFERED is set around the tests."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "ucdispatch.mipshim", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


def test_child_prints_a_maximum_of_zero_as_zero(tmp_path):
    # negating HiGHS's 0.0 printed "optimal objective -0" and wrote "# objective -0"
    text = MAX_MPS.format(objsense="OBJSENSE MAX\n").replace("obj       1 ", "obj       -1 ")
    (tmp_path / "model.mps").write_text(text, encoding="utf-8")
    run = run_child([str(tmp_path / "model.mps"), str(tmp_path / "model.sol")])
    assert (run.returncode, run.stdout, run.stderr) == (0, "optimal objective 0\n", "")
    assert (tmp_path / "model.sol").read_text() == "# objective 0\nx 0\ny 0\n"


@pytest.mark.parametrize("text, argv, code", [
    (GOOD_MPS, ["{model}", "{solution}"], 0),
    (INFEASIBLE_MPS, ["{model}", "{solution}"], 1),
    (GOOD_MPS.replace(" G  c1", " X  c1"), ["{model}", "{solution}"], 2),
    (GOOD_MPS, ["{model}"], 2),
    (GOOD_MPS, ["{model}", "{folder}"], 2),
    (GOOD_MPS, ["{model}", "{folder}/nodir/model.sol"], 2),
], ids=["optimal", "infeasible", "parse-error", "argument-count", "solution-is-a-directory",
        "solution-folder-missing"])
def test_child_exits_as_main_returns(tmp_path, capsys, text, argv, code):
    # the child ends with os._exit, skipping the interpreter's teardown: it
    # must flush what it prints first, and a piped stdout is block-buffered
    model = tmp_path / "model.mps"
    model.write_text(text, encoding="utf-8")
    outcomes = []
    for where in ("child", "in-process"):
        solution = tmp_path / where / "model.sol"
        solution.parent.mkdir()
        args = [arg.format(model=model, solution=solution, folder=tmp_path) for arg in argv]
        if where == "child":
            run = run_child(args)
            outcome = run.returncode, run.stdout, run.stderr
        else:
            try:
                returned = mipshim.main(args)
            except SystemExit as exc:  # argparse's usage error
                returned = exc.code
            outcome = returned, *capsys.readouterr()
        outcomes.append((*outcome, solution.read_bytes() if solution.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


def test_console_script_runs_what_python_m_runs():
    # the documented --solver-cmd "ucdispatch-mip {model} {solution}" gets
    # the fast exit of "python -m ucdispatch.mipshim", which perfbench runs
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text("utf-8")
    (target,) = re.findall(r'^ucdispatch-mip = "ucdispatch\.mipshim:(\w+)"$', pyproject, re.M)
    (block,) = [node for node in ast.parse(inspect.getsource(mipshim)).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block.body] == [f"{target}()"]
    assert target != "main"  # main returns its code, for in-process callers
