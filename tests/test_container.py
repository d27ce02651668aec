import json
import os
import re

import numpy as np
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


def test_defective_container_raises_value_error_naming_file_and_array(tmp_path):
    """A header cut short, an array cut short and an entry whose byte count
    does not fit its dtype and shape each raise ValueError naming the file
    and, past the header, the array."""
    path = str(tmp_path / "c.bin")
    container.save_container(path, {"grid": np.ones((4, 8)), "ids": np.arange(3)},
                             {"kind": "test"})
    data = open(path, "rb").read()
    start = len(container.MAGIC) + 8
    end = start + int.from_bytes(data[len(container.MAGIC):start], "little")
    header = json.loads(data[start:end])
    header["arrays"][0]["nbytes"] -= 8
    misfit = json.dumps(header).encode()
    cases = {
        data[:start + 10]: "truncated or corrupt header",
        data[:-16]: "array ids needs payload bytes 256 to 280, the file holds 264",
        data[:len(container.MAGIC)] + len(misfit).to_bytes(8, "little") + misfit
        + data[end:]: "array grid holds 248 bytes, not the 256 of float64 (4, 8)",
    }
    for defective, message in cases.items():
        with open(path, "wb") as fh:
            fh.write(defective)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            container.load_container(path)
