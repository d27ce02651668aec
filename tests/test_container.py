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
    """A header cut short, an array cut short, an entry whose byte count
    does not fit its dtype and shape, and an entry with a negative dimension
    or a dtype that is not a number each raise ValueError naming the file
    and, past the header, the array."""
    path = str(tmp_path / "c.bin")
    container.save_container(path, {"grid": np.ones((4, 8)), "ids": np.arange(3)},
                             {"kind": "test"})
    data = open(path, "rb").read()
    start = len(container.MAGIC) + 8
    end = start + int.from_bytes(data[len(container.MAGIC):start], "little")

    def rewritten(**entry):
        """The file with the header entry of grid, the first, updated by entry."""
        doc = json.loads(data[start:end])
        doc["arrays"][0].update(entry)
        text = json.dumps(doc).encode()
        return (data[:len(container.MAGIC)] + len(text).to_bytes(8, "little") + text
                + data[end:])

    cases = {
        data[:start + 10]: "truncated or corrupt header",
        data[:-16]: "array ids needs payload bytes 256 to 280, the file holds 264",
        rewritten(nbytes=248): "array grid holds 248 bytes, not the 256 of float64 (4, 8)",
        rewritten(shape=[-2, -3], nbytes=48): "array grid has shape [-2, -3], not sizes >= 0",
        rewritten(dtype="object"): "array grid has dtype object, not a numeric one",
    }
    for defective, message in cases.items():
        with open(path, "wb") as fh:
            fh.write(defective)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            container.load_container(path)


def test_container_round_trips_dtype_shape_and_layout(tmp_path):
    """Every array loads back with its dtype, shape and values: a 0-d scalar,
    an empty array and a non-contiguous view among them."""
    path = str(tmp_path / "c.bin")
    base = np.arange(24, dtype=np.int32).reshape(4, 6)
    arrays = {"scalar": np.float32(2.5), "zero_d": np.array(-1.0), "empty": np.zeros((0, 3)),
              "strided": base[::2, 1::2], "transposed": base.T}
    container.save_container(path, arrays, {})
    loaded, meta = container.load_container(path)
    assert meta == {} and sorted(loaded) == sorted(arrays)
    for name, want in arrays.items():
        got = loaded[name]
        assert got.shape == np.shape(want) and got.dtype == np.asarray(want).dtype, name
        assert np.array_equal(got, want), name
