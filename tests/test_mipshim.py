"""The ucdispatch-mip command on well-formed and malformed MPS and LP files."""

import ast
import inspect

import pytest

from helpers import fixture_instance, multi_unit_instance, storage_instance
from test_writers import empty_model
from ucdispatch import mipshim
from ucdispatch.model import SENSES, build_model
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


def test_good_model_solves(tmp_path, capsys):
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
], ids=["undeclared-column-row", "unpaired-token", "undeclared-rhs-row",
        "unknown-row-type", "ranges", "objname", "sos", "quadobj",
        "unknown-objsense", "duplicate-row", "stray-line", "objective-rhs"])
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
def test_objsense_is_honoured(tmp_path, capsys, objsense, optimum):
    code, solution = run_shim(tmp_path, MAX_MPS.format(objsense=objsense))
    assert code == 0
    assert f"optimal objective {optimum}\n" == capsys.readouterr().out
    assert solution.read_text().splitlines()[0] == f"# objective {optimum}"


@pytest.mark.parametrize("write, name", [(write_mps, "model.mps"), (write_lp, "model.lp")],
                         ids=["mps", "lp"])
def test_empty_model_solves(tmp_path, capsys, write, name):
    # milp refuses a problem without columns: this was a traceback, exit 1
    code, solution = run_shim(tmp_path, write(empty_model()), name)
    assert code == 0
    assert capsys.readouterr().out == "optimal objective 0\n"
    assert solution.read_text() == "# objective 0\n"


@pytest.mark.parametrize("rhs, code", [("2", 1), ("-2", 0)])
def test_row_without_columns_must_hold_at_zero(tmp_path, capsys, rhs, code):
    text = f"NAME demo\nROWS\n N  obj\n G  c1\nRHS\n    rhs  c1  {rhs}\nENDATA\n"
    assert run_shim(tmp_path, text)[0] == code
    assert ("solve failed" in capsys.readouterr().err) == (code == 1)


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


# min x + y  s.t.  x + y >= 2: the optimum is 2
GOOD_LP = """\
Minimize
 obj: x + y
Subject To
 c1: x + y >= 2
End
"""


def test_good_lp_solves(tmp_path, capsys):
    code, solution = run_shim(tmp_path, GOOD_LP, "model.lp")
    assert code == 0
    assert "optimal objective 2" in capsys.readouterr().out


def test_empty_lp_objective_solves(tmp_path, capsys):
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


@pytest.mark.parametrize("objective, bound, optimum", [
    # a name ending in "inf" was taken for a number: exit 2
    ("- xinf", "xinf <= 5", -5),
    ("- xinf", "5 >= xinf", -5),
    ("- xinf", "-inf <= xinf <= 5", -5),
    ("xinf", "-inf <= xinf", -3),
    ("xinf", "-Infinity <= xinf <= +INF", -3),
], ids=["name-ending-in-inf", "flipped", "minus-inf-range", "minus-inf-lower",
        "infinity-words"])
def test_lp_bounds(tmp_path, capsys, objective, bound, optimum):
    text = f"Minimize\n obj: {objective}\nSubject To\n c1: xinf >= -3\nBounds\n {bound}\nEnd\n"
    code, _ = run_shim(tmp_path, text, "model.lp")
    assert code == 0
    assert capsys.readouterr().out == f"optimal objective {optimum}\n"


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


def test_shim_imports_nothing_from_the_package():
    # the shim is an independent cross-check of the builder and the writers
    tree = ast.parse(inspect.getsource(mipshim))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("ucdispatch"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ucdispatch") for alias in node.names)
