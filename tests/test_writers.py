"""MPS and LP emission: shape, determinism, self-consistency; the file writer."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fixture_instance,
    multi_unit_instance,
    random_instance,
    storage_instance,
)
from ucdispatch.model import (
    ColumnIndex,
    MilpModel,
    RowBlock,
    RowMatrix,
    build_model,
    model_stats,
)
from ucdispatch.thinning import thin_all
from ucdispatch.writers import _row_name, _row_names, write_file, write_lp, write_mps


def empty_model():
    return MilpModel(ColumnIndex.from_keys([]), RowMatrix.from_blocks([]), {})


def single_constraint_model():
    # min x subject to x <= 5
    columns = ColumnIndex.from_keys([("p", 1, 1)])
    rows = RowMatrix.from_blocks([RowBlock("cap", [1], "<=", 5.0, [([0], 1.0)])])
    return MilpModel(columns, rows, {0: 1.0})


def fixture_model():
    instance = fixture_instance()
    return build_model(instance, thin_all(instance))


class TestMps:
    def test_empty_model_skeleton(self):
        text = write_mps(empty_model())
        sections = [line.split()[0] for line in text.splitlines()
                    if line and not line[0].isspace()]
        assert sections == ["NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"]

    def test_single_constraint(self):
        text = write_mps(single_constraint_model())
        lines = text.splitlines()
        assert " N  OBJ" in lines
        assert " L  cap_1" in lines
        assert "    p_1_1  OBJ  1" in lines
        assert "    p_1_1  cap_1  1" in lines
        assert "    RHS  cap_1  5" in lines

    def test_fixture_counts_round_trip(self):
        model = fixture_model()
        stats = model_stats(model)
        text = write_mps(model)
        section = None
        rows, columns = [], set()
        for line in text.splitlines():
            if not line[0].isspace():
                section = line.split()[0]
                continue
            tokens = line.split()
            if section == "ROWS" and tokens[0] != "N":
                rows.append(tokens[1])
            elif section == "COLUMNS" and "'MARKER'" not in tokens:
                columns.add(tokens[0])
        assert len(rows) == stats["total_constraints"]
        assert len(set(rows)) == len(rows)  # sanitization kept names unique
        assert len(columns) == stats["total_variables"]

    def test_binaries_are_marked(self):
        text = write_mps(fixture_model())
        assert "'INTORG'" in text and "'INTEND'" in text
        assert " BV BND  v_1_1" in text

    def test_deterministic(self):
        assert write_mps(fixture_model()) == write_mps(fixture_model())

    def test_no_negative_zero(self):
        columns = ColumnIndex.from_keys([("p", 1, 1)])
        rows = RowMatrix.from_blocks([RowBlock("zero", [1], "<=", -0.0, [([0], 1.0)])])
        text = write_mps(MilpModel(columns, rows, {}))
        assert "-0 " not in text


class TestLp:
    def test_empty_model_shape(self):
        assert write_lp(empty_model()) == "Minimize\n obj: 0\nSubject To\nEnd\n"

    def test_binaries_section(self):
        text = write_lp(fixture_model())
        assert "Binaries" in text
        binaries_block = text.split("Binaries\n", 1)[1].split("End", 1)[0]
        assert "v_1_1" in binaries_block and "v_1_2" in binaries_block
        assert " 0 <= v_1_1 <= 1" in text

    def test_constraint_lines(self):
        text = write_lp(single_constraint_model())
        assert " cap_1: 1 p_1_1 <= 5" in text
        assert text.startswith("Minimize\n obj: 1 p_1_1\n")

    def test_deterministic(self):
        assert write_lp(fixture_model()) == write_lp(fixture_model())

    def test_long_objective_wraps(self):
        instance = storage_instance()
        text = write_lp(build_model(instance, thin_all(instance)))
        assert all(len(line) <= 100 for line in text.splitlines())


def test_write_file_rewrites_in_place(tmp_path, monkeypatch):
    """No open truncates; only a rewrite that is shorter cuts the file,
    to the new length in bytes."""
    flags, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    def spy_ftruncate(fd, length):
        cuts.append(length)
        real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    path = tmp_path / "out.txt"
    for text, cut in [("new file\n", []),   # created
                      ("same len\n", []),   # rewritten, same length
                      ("a longer line\nand more\n", []),
                      ("é\n", [3]),         # shorter: cut to three bytes
                      ("", [0])]:
        cuts.clear()
        write_file(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert cuts == cut
    assert len(flags) == 5 and not any(flag & os.O_TRUNC for flag in flags)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="ab1_-[],. \n\x00é", max_size=8), max_size=6))
def test_row_names_sanitize_as_the_regex(names):
    # separators alone or in runs, underscores at the ends, empty names,
    # line feeds and non-ASCII: the joined-text path or its fallback
    assert _row_names(names) == [_row_name(name) for name in names]


def test_formats_cover_same_model():
    model = fixture_model()
    mps, lp = write_mps(model), write_lp(model)
    for name in model.columns.names:
        assert name in mps
        assert name in lp


#: SHA-256 of the MPS and LP emission of hand-built instances; any change to
#: the model layout or the writers' formatting shows up here
GOLDEN = {
    "fixture": (
        "7123e0155fabaac7b68f80c9e6514e47e7988ee3490be672296544b5b0f45ed8",
        "51170cebf3c4ea9d6e12cc09fc6e7cea6c81dc4b82ee10a7c80d83b8af36f687"),
    "storage": (
        "38080be9f25df002232546029a56b0923dc6463b71ea1015635b67c4600fd56d",
        "9e1919e17a0521f67514fb1a116c7dcf05b578fd0775c72c950f356c3323cfb1"),
    # L = 1.5: the 18 slack objective coefficients are their penalty times L
    "multi-unit": (
        "9586626e7cfb8498c157850f44fcb3b018d0175eb7b83ea3df9488fe8f552c3a",
        "5ced1156ed29ec1f9be51635475b81075f5b1333265de1efde39671189712513"),
    # 3,396 rows and 25,042 nonzeros: LP rows of up to 44 terms that wrap
    # many times, and columns with up to 207 entries
    "week-4x48": (
        "eb0508bdb6b1680d7e6e59457bbb4dd745c3ee083d14491a479ea2b8ef7b01c7",
        "38c74c8e2efcae7013dc8dad7f2ecfe9c21bde99dceadbc687b0474d2ab1e0d8"),
}
GOLDEN_INSTANCES = {
    "fixture": fixture_instance,
    "storage": storage_instance,
    "multi-unit": multi_unit_instance,
    "week-4x48": lambda: random_instance(np.random.default_rng(11), 4, 48,
                                         with_storage=False),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_emission(label):
    instance = GOLDEN_INSTANCES[label]()
    model = build_model(instance, thin_all(instance))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (write_mps(model), write_lp(model)))
    assert digests == GOLDEN[label]
