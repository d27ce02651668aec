import os

import pytest

from scanpose import container


def test_atomic_write_joins_chunks_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    container.atomic_write(str(path), b"ab", b"", b"cd")
    assert path.read_bytes() == b"abcd"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_failure_keeps_old_file_and_removes_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        container.atomic_write(str(path), b"new", "not bytes")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]
