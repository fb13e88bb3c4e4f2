import os

import pytest

from mose.util import atomic_write


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
