import json
import os
from pathlib import Path

import numpy as np
import pytest

from mose.util import atomic_write, write_manifest


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
