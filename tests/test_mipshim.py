"""The ucdispatch-mip command on well-formed and malformed model files."""

import pytest

from ucdispatch import mipshim

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
], ids=["undeclared-column-row", "unpaired-token", "undeclared-rhs-row",
        "unknown-row-type"])
def test_malformed_mps_is_a_parse_error(tmp_path, capsys, old, new):
    assert old in GOOD_MPS
    code, solution = run_shim(tmp_path, GOOD_MPS.replace(old, new))
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err
    assert not solution.exists()


def test_non_utf8_model_file_exits_two(tmp_path, capsys):
    code, solution = run_shim(tmp_path, GOOD_MPS.encode("utf-8").replace(b"demo", b"d\xe9mo"))
    assert code == 2
    assert "utf-8" in capsys.readouterr().err
    assert not solution.exists()
