import os
import sys
from pathlib import Path

import pytest

# run from a checkout: the package comes from src/, in this process and in
# the solver child processes, which see PYTHONPATH but not sys.path
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path[:0] = [str(Path(__file__).parent), SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from helpers import fixture_instance, storage_instance, write_instance_files  # noqa: E402

#: external solver template used throughout the tests (module form avoids
#: depending on the console script being on PATH)
SHIM_TEMPLATE = f"{sys.executable} -m ucdispatch.mipshim {{model}} {{solution}}"


@pytest.fixture
def fixture_inst():
    return fixture_instance()


@pytest.fixture
def storage_inst():
    return storage_instance()


@pytest.fixture
def fixture_files(tmp_path):
    return write_instance_files(fixture_instance(), tmp_path / "data")


@pytest.fixture
def both_solve_paths(monkeypatch):
    """Each ``mipshim.solve_problem`` call in the test solves on both of the
    shim's paths: SciPy's bundled HiGHS module, then ``scipy.optimize.milp``,
    which the shim takes when its locator finds nothing.  The two answers
    must be the same to the bit, or neither optimal; the test sees the first."""
    from ucdispatch import mipshim

    solve = mipshim.solve_problem

    def solve_both(problem):
        direct = solve(problem)
        with monkeypatch.context() as patch:
            patch.setattr(mipshim, "_highs_core", lambda: None)
            fallback = solve(problem)
        if "optimal" in (direct[0], fallback[0]):
            assert repr(fallback) == repr(direct)
        return direct

    monkeypatch.setattr(mipshim, "solve_problem", solve_both)
