"""SKT1 binary tensor files.

Layout: 4-byte magic ``SKT1``, u8 dtype tag (0 = float32), u8 ndim, then
ndim little-endian u32 dims, then the row-major little-endian float32
payload.
"""

import struct

import numpy as np

from .kernels import _require

MAGIC = b"SKT1"
DTYPE_F32 = 0


def tensor_to_bytes(arr):
    arr = np.asarray(arr)
    _require(arr.dtype.kind in "biuf", "arr", "hold real numbers", arr.dtype)
    arr = arr.astype("<f4", copy=False)
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValueError(f"ndim {arr.ndim} out of range for SKT1")
    header = MAGIC + struct.pack("<BB", DTYPE_F32, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr).tobytes()


def tensor_from_bytes(buf):
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise ValueError("not an SKT1 tensor: bad magic")
    dtype_tag, ndim = struct.unpack_from("<BB", buf, 4)
    if dtype_tag != DTYPE_F32:
        raise ValueError(f"unsupported SKT1 dtype tag {dtype_tag}")
    if ndim < 1:
        raise ValueError("SKT1 tensor must have ndim >= 1")
    offset = 6
    if len(buf) < offset + 4 * ndim:
        raise ValueError("truncated SKT1 header")
    dims = struct.unpack_from(f"<{ndim}I", buf, offset)
    offset += 4 * ndim
    count = int(np.prod(dims, dtype=np.int64))
    payload = buf[offset:]
    if len(payload) != 4 * count:
        raise ValueError(f"SKT1 payload holds {len(payload)} bytes, dims {dims} need {4 * count}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)


def write_tensor(path, arr):
    buf = tensor_to_bytes(arr)  # checked first: a bad arr leaves the file as it was
    with open(path, "wb") as f:
        f.write(buf)


def read_tensor(path):
    with open(path, "rb") as f:
        return tensor_from_bytes(f.read())
