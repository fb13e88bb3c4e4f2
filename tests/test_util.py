import json
import os
from pathlib import Path

import numpy as np
import pytest

from mose.util import atomic_write, substream, substream_words, write_manifest


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
