"""Binary checkpoint container: magic, JSON header, named tensors.

Layout (little-endian):
    8 bytes  magic "MOECKPT2"
    u32      JSON header byte length, then that many UTF-8 bytes
    u32      tensor count
    per tensor:
        u16  name byte length, then the UTF-8 name
        u8   dtype (0 = float32, 1 = float64)
        u8   rank
        rank x u64 dims
        raw row-major values

Parameters are written as float64 so that loading restores them bitwise and
a resumed training run follows the original trajectory exactly; float32
entries are accepted on read. Version 1 files hold models whose GELU was
the exact (erf) form; they are refused, because the same weights compute
another function under the tanh form.

Tensors stream between the file and their arrays in both directions. The
writer hands each array's own buffer to the file, so saving copies no tensor
that is already C-contiguous. The reader checks every size against the
file's length before it allocates, then reads each tensor's values straight
into a fresh array of its stored dtype: those arrays are the only copy, and
the caller owns them.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError
from .fileio import atomic_write

MAGIC = b"MOECKPT2"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_MAX_BYTES = np.iinfo(np.intp).max  # the largest array numpy can describe


def write_checkpoint(path: str, header: dict, tensors: dict[str, np.ndarray]) -> None:
    atomic_write(path, _encode(header, tensors))


def _encode(header: dict, tensors: dict[str, np.ndarray]):
    """The file's byte buffers in order; tensor values are the arrays themselves."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    yield MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"tensor {name} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        yield (struct.pack("<H", len(encoded)) + encoded
               + struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
               + struct.pack(f"<{arr.ndim}Q", *arr.shape))
        yield np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


class _Reader:
    def __init__(self, fh, path: str):
        self.fh = fh
        self.path = path
        self.pos = 0
        self.size = os.fstat(fh.fileno()).st_size

    def _truncated(self, what: str) -> FormatError:
        return FormatError(f"{self.path}: truncated while reading {what} at offset {self.pos}")

    def check_fits(self, n: int, what: str) -> None:
        if n > self.size - self.pos:
            raise self._truncated(what)

    def take(self, n: int, what: str) -> bytes:
        self.check_fits(n, what)
        chunk = self.fh.read(n)
        if len(chunk) != n:
            raise self._truncated(what)
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def read_array(self, dims: tuple[int, ...], dtype: np.dtype, what: str) -> np.ndarray:
        """A new array of `dims` filled from the file; the caller checked that it fits."""
        arr = np.empty(dims, dtype)
        if self.fh.readinto(arr) != arr.nbytes:
            raise self._truncated(what)
        self.pos += arr.nbytes
        return arr


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        r = _Reader(fh, path)
        magic = r.take(len(MAGIC), "magic")
        if magic != MAGIC:
            if magic[:7] == MAGIC[:7]:
                raise FormatError(
                    f"{path}: unsupported checkpoint version {magic!r} at offset 0")
            raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
        (header_len,) = r.unpack("<I", "header length")
        header_at = r.pos
        try:
            header = json.loads(r.take(header_len, "JSON header").decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
            raise FormatError(
                f"{path}: invalid JSON header at offset {header_at}: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: JSON header at offset {header_at} is a "
                              f"{type(header).__name__}, not an object")
        (count,) = r.unpack("<I", "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = r.unpack("<H", f"tensor {i} name length")
            name_at = r.pos
            try:
                name = r.take(name_len, f"tensor {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{path}: tensor {i} name at offset {name_at} is not UTF-8") from exc
            dtype_code, rank = r.unpack("<BB", f"tensor {name} dtype/rank")
            if dtype_code not in _DTYPES:
                raise FormatError(f"{path}: tensor {name} has unknown dtype code {dtype_code}")
            dims_at = r.pos
            dims = r.unpack(f"<{rank}Q", f"tensor {name} dims")
            dtype = _DTYPES[dtype_code]
            # Exact Python ints: no product can wrap, however large the dims.
            r.check_fits(math.prod(dims) * dtype.itemsize, f"tensor {name} values")
            if math.prod(max(d, 1) for d in dims) * dtype.itemsize > _MAX_BYTES:
                raise FormatError(
                    f"{path}: tensor {name} dims {dims} at offset {dims_at} are too large")
            if name in tensors:
                raise FormatError(f"{path}: duplicate tensor name {name!r}")
            tensors[name] = r.read_array(dims, dtype, f"tensor {name} values")
        if r.pos != r.size:
            raise FormatError(f"{path}: {r.size - r.pos} trailing bytes at offset {r.pos}")
    return header, tensors
