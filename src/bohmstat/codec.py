"""The binary file format shared by .fld, .rdm, .trj and .ens files.

A file is one JSON object on the first line, then a newline, then the raw
payload: each array in turn, in C order, as little-endian float64 (`<f8`)
or, for complex arrays, complex128 (`<c16`, i.e. interleaved re/im).  The
header alone says how the payload splits into arrays; the domain modules
(`lattice`, `subsystem`, `bohmian`, `classical_phase`) choose the header
keys and derive the array shapes from them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import MalformedFile


def _dtype(is_complex) -> np.dtype:
    return np.dtype("<c16" if is_complex else "<f8")


def write(path, header: dict, *arrays) -> None:
    """Write `header` as the JSON line, then every array's payload."""
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for arr in arrays:
            arr = np.asarray(arr)
            f.write(np.ascontiguousarray(arr, _dtype(np.iscomplexobj(arr))).data)


def read(path, layout):
    """Returns (header, arrays).

    `layout(header)` lists one (shape, is_complex) pair per stored array.
    Raises MalformedFile when the first line is not a JSON object, when the
    header lacks a key that `layout` needs, or when the payload length is not
    what the shapes require.
    """
    with open(path, "rb") as f:
        first = f.readline()
        payload = bytearray(f.read())  # writable, so the array views are too
    try:
        header = json.loads(first)
    except ValueError:  # not JSON, or not UTF-8
        header = None
    if not isinstance(header, dict):
        raise MalformedFile(f"{path}: first line is not a JSON object")
    try:
        specs = [(tuple(int(s) for s in shape), _dtype(is_complex))
                 for shape, is_complex in layout(header)]
    except KeyError as exc:
        raise MalformedFile(f"{path}: header lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: header shape is invalid: {exc}") from None
    if any(s < 0 for shape, _ in specs for s in shape):
        raise MalformedFile(f"{path}: header shape has a negative size")
    needed = sum(math.prod(shape) * dt.itemsize for shape, dt in specs)
    if len(payload) != needed:
        raise MalformedFile(f"{path}: payload has {len(payload)} bytes, "
                            f"header implies {needed}")
    arrays, offset = [], 0
    for shape, dt in specs:
        count = math.prod(shape)
        arrays.append(np.frombuffer(payload, dt, count, offset).reshape(shape))
        offset += count * dt.itemsize
    return header, arrays
