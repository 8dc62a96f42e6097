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
    """Each ``mipshim.main`` run in the test solves on both routes it can
    take: HiGHS reading the model file itself, and HiGHS given the shim's
    reading of it in memory.  The answers must be the same to the bit, or
    none optimal; the test sees the one ``main`` takes."""
    from ucdispatch import mipshim

    solve_file = mipshim._solve_file

    def from_file(core, path, problem):
        # None sends main to the in-memory route alone
        answer = solve_file(core, path, problem)
        if answer is not None:
            answers = [answer, mipshim.solve_problem(problem)]
            if any(status == "optimal" for status, _, _ in answers):
                assert repr(answers[0]) == repr(answers[1]), answers
        return answer

    monkeypatch.setattr(mipshim, "_solve_file", from_file)
