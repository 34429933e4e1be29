"""The one binary format behind .fld, .rdm, .trj and .ens files."""

import json

import numpy as np
import pytest

from bohmstat import bohmian as bm
from bohmstat import classical_phase as cp
from bohmstat import codec, errors
from bohmstat import subsystem as ss
from bohmstat.lattice import Grid, GridSpec, read_field, write_field

GRID = Grid(GridSpec(1, 1, 8, (0.0, 1.0)))
RNG = np.random.default_rng(0)


def _field(path):
    write_field(path, RNG.standard_normal(8) + 1j * RNG.standard_normal(8), GRID)


def _rdm(path):
    mat = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
    ss.write_rdm(path, ss.ReducedDensityMatrix(GRID, mat, 0.5))


def _trajectories(path):
    paths = RNG.standard_normal((5, 3, 1))
    bm.write_trajectories(path, bm.TrajectoryEnsemble("full", 1, np.arange(3.0), paths))


def _ensemble(path):
    h = cp.ClassicalHSpec((1.0, 2.0), (1.0, 1.0), 0.5)
    xs, ps = RNG.standard_normal((2, 3, 4, 2))
    cp.write_ensemble(path, cp.PhaseEnsemble(h, xs, ps, np.arange(3.0), 2))


FORMATS = {
    "fld": (_field, read_field),
    "rdm": (_rdm, ss.read_rdm),
    "trj": (_trajectories, bm.read_trajectories),
    "ens": (_ensemble, cp.read_ensemble),
}


def _new_header(first_line):
    return lambda data: first_line + b"\n" + data.split(b"\n", 1)[1]


DAMAGES = {
    "truncated": lambda data: data[:-8],
    "extra_bytes": lambda data: data + bytes(8),
    "not_json": _new_header(b"not json"),
    "not_an_object": _new_header(b"[1, 2]"),
    "no_shape_keys": _new_header(b"{}"),
    "negative_size": _new_header(b'{"shape": [-1, -1], "dim": -1, "complex": false}'),
    "size_not_a_number": _new_header(b'{"shape": ["a"], "dim": "a", "complex": false}'),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
@pytest.mark.parametrize("ext", sorted(FORMATS))
def test_reader_rejects_malformed_file(tmp_path, ext, damage):
    write, read = FORMATS[ext]
    path = tmp_path / f"x.{ext}"
    write(path)
    read(path)  # the undamaged file reads back
    path.write_bytes(DAMAGES[damage](path.read_bytes()))
    with pytest.raises(errors.MalformedFile):
        read(path)


HEADER_KEYS = [("trj", key) for key in ("flavor", "seed", "times")] + [
    ("ens", key) for key in ("masses", "omegas", "kappa", "times", "seed")]


@pytest.mark.parametrize("ext,key", HEADER_KEYS)
def test_reader_rejects_header_without_key(tmp_path, ext, key):
    write, read = FORMATS[ext]
    path = tmp_path / f"x.{ext}"
    write(path)
    first, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(first)
    del header[key]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(errors.MalformedFile, match=key):
        read(path)


# header values that do not fit the payload (5 samples x 3 frames for .trj;
# 3 frames x 4 samples x 2 particles for .ens) or each other
BAD_HEADER_VALUES = {
    "trj_times_per_frame": ("trj", "times", [0.0]),
    "trj_flavor": ("trj", "flavor", 7),
    "trj_seed": ("trj", "seed", 1.5),
    "ens_times_per_frame": ("ens", "times", [0.0]),
    "ens_masses_per_particle": ("ens", "masses", [1.0]),
    "ens_omegas_per_particle": ("ens", "omegas", [1.0, 1.0, 1.0]),
    "ens_seed": ("ens", "seed", "2"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADER_VALUES))
def test_reader_rejects_header_value(tmp_path, case):
    ext, key, value = BAD_HEADER_VALUES[case]
    write, read = FORMATS[ext]
    path = tmp_path / f"x.{ext}"
    write(path)
    first, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(first)
    header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(errors.MalformedFile, match=key):
        read(path)


def test_complex_payload_is_interleaved_re_im(tmp_path):
    # a non-contiguous complex view is stored as re, im, re, im, ... in C order
    z = (RNG.standard_normal((6, 4)) + 1j * RNG.standard_normal((6, 4)))[::2, ::-1]
    path = tmp_path / "z.bin"
    codec.write(path, {"n": 1}, z, z.real)
    data = path.read_bytes()
    assert data.startswith(b'{"n": 1}\n')
    payload = np.frombuffer(data[len(b'{"n": 1}\n'):], "<f8")
    interleaved = np.empty(2 * z.size)
    interleaved[0::2] = z.ravel().real
    interleaved[1::2] = z.ravel().imag
    np.testing.assert_array_equal(payload[:2 * z.size], interleaved)
    np.testing.assert_array_equal(payload[2 * z.size:], z.real.ravel())
    header, (back, back_re) = codec.read(
        path, lambda h: [((3, 4), True), ((3, 4), False)])
    assert header == {"n": 1}
    np.testing.assert_array_equal(back, z)
    np.testing.assert_array_equal(back_re, z.real)
