import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mose.util import atomic_write, substream, substream_words, unique, write_manifest


class TestAtomicWrite:
    @pytest.mark.parametrize("binary", [False, True])
    def test_writer_that_raises_leaves_the_previous_file(self, tmp_path, binary):
        path = tmp_path / "report.txt"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="partway"):
            with atomic_write(str(path), binary=binary) as f:
                f.write(b"new" if binary else "new")
                f.flush()
                raise RuntimeError("failed partway")
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"previous\n")
        with atomic_write(str(path)) as f:
            f.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["report.txt"]


class TestManifest:
    def test_config_is_written_as_given(self, tmp_path):
        path = write_manifest(str(tmp_path), "gen", {"count": 3, "dataset": "X"}, 7, "abc")
        assert json.loads(Path(path).read_text()) == {
            "command": "gen", "seed": 7, "dataset_hash": "abc",
            "config": {"count": 3, "dataset": "X"}}

    def test_non_json_value_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_manifest(str(tmp_path), "gen", {"count": np.int64(3)}, 0)
        assert os.listdir(tmp_path) == []


class TestSubstreamWords:
    TOP = 2**31 - 1

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**130])
    @pytest.mark.parametrize("count", [1, 2, 79, 80])
    def test_rows_equal_the_generators_raw_words(self, seed, count):
        # one entropy word for the seed and up to five, graph and node ids at
        # both ends of their range, and an odd and an even word count
        keys = np.array([[0, 0], [0, self.TOP], [self.TOP, 0], [self.TOP, self.TOP],
                         [3, 17], [2**32 - 1, 5]])
        want = np.stack([substream(seed, *map(int, key)).bit_generator.random_raw(count)
                         for key in keys])
        got = substream_words(seed, keys, count)
        assert got.dtype == np.uint64 and got.shape == (len(keys), count)
        assert np.array_equal(got, want)

    def test_one_key_column_and_three(self):
        for keys in (np.array([[0], [9]]), np.array([[1, 2, 3], [0, 0, 2**32 - 1]])):
            want = np.stack([substream(5, *map(int, key)).bit_generator.random_raw(3)
                             for key in keys])
            assert np.array_equal(substream_words(5, keys, 3), want)

    def test_no_keys_gives_no_rows(self):
        got = substream_words(7, np.zeros((0, 2), dtype=np.int64), 80)
        assert got.dtype == np.uint64 and got.shape == (0, 80)

    @pytest.mark.parametrize("key", [2**32, 2**40, -1])
    def test_key_outside_one_entropy_word_is_refused(self, key):
        # SeedSequence would take 2**32 as two words: a different stream
        with pytest.raises(ValueError, match="keys must lie in"):
            substream_words(0, np.array([[0, 1], [3, key]]), 4)


@st.composite
def key_arrays(draw):
    """Integer keys of int32, int64 or uint64 (1-d, or 2-d to be flattened), or
    void rows of 1-3 int64 words, drawn from their full range or from 0-2, so
    that keys repeat."""
    kind = draw(st.sampled_from(["int32", "int64", "uint64", "void"]))
    n = draw(st.integers(0, 40))
    info = np.iinfo(np.int64 if kind == "void" else kind)
    few = draw(st.booleans())
    elements = st.integers(0, 2) if few else st.integers(int(info.min), int(info.max))
    if kind == "void":
        width = draw(st.integers(1, 3))
        return draw(hnp.arrays(np.int64, (n, width), elements=elements)).view(
            f"V{8 * width}").ravel()
    shape = draw(st.sampled_from([(n,), (-(-n // 3), 3)]))
    return draw(hnp.arrays(kind, shape, elements=elements))


class TestUnique:
    @settings(max_examples=200, deadline=None)
    @given(key_arrays())
    @example(np.zeros(0, dtype=np.int64))
    @example(np.array([7], dtype=np.int32))
    @example(np.full(6, 2**64 - 1, dtype=np.uint64))
    @example(np.zeros((4, 2), dtype=np.int64).view("V16").ravel())
    def test_matches_numpy_for_every_flag_combination(self, values):
        for flags in itertools.product([False, True], repeat=3):
            want, got = np.unique(values, *flags), unique(values, *flags)
            if not any(flags):      # the keys alone, not in a tuple
                want, got = (want,), (got,)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), flags
