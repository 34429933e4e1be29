"""The vectorized kernels must reproduce, bit for bit, the per-sample loops
below.  The loops are slow reference oracles: they spell out the RK4 stage
blends, the multilinear interpolation and the Verlet force sums one sample
and one coordinate at a time, in the same floating-point operation order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmstat import kernels


def _interp_point(vflat_f, x, x_first, dx, n, d_dims, strides, periodic, out):
    idx0 = np.empty(d_dims, np.int64)
    frac = np.empty(d_dims)
    for d in range(d_dims):
        u = (x[d] - x_first) / dx
        if periodic:
            i = int(np.floor(u))
            frac[d] = u - i
            idx0[d] = i % n
        else:
            if u < 0.0:
                u = 0.0
            if u > n - 1.0:
                u = n - 1.0
            i = int(np.floor(u))
            if i > n - 2:
                i = n - 2
            idx0[d] = i
            frac[d] = u - i
    for c in range(d_dims):
        out[c] = 0.0
    for corner in range(1 << d_dims):
        w = 1.0
        flat = 0
        for d in range(d_dims):
            if (corner >> d) & 1:
                w *= frac[d]
                i = idx0[d] + 1
                if periodic and i >= n:
                    i -= n
            else:
                w *= 1.0 - frac[d]
                i = idx0[d]
            flat += i * strides[d]
        for c in range(d_dims):
            out[c] += w * vflat_f[c, flat]


def loop_rk4_paths(x0, frame_times, vflat, x_first, dx, n, periodic,
                   substeps, lo, hi):
    nsamples, d_dims = x0.shape
    nf = frame_times.shape[0]
    npts = vflat.shape[2]
    strides = np.empty(d_dims, np.int64)
    s = 1
    for d in range(d_dims - 1, -1, -1):
        strides[d] = s
        s *= n
    paths = np.empty((nsamples, nf, d_dims))
    escaped = np.zeros(nsamples, np.uint8)
    k1, k2, k3, k4, xt = (np.empty(d_dims) for _ in range(5))
    v0, vm, v1 = (np.empty((d_dims, npts)) for _ in range(3))
    xcur = x0.copy()
    length = hi - lo
    paths[:, 0, :] = xcur
    for f in range(nf - 1):
        t0 = frame_times[f]
        t1 = frame_times[f + 1]
        h = (t1 - t0) / substeps
        for ss in range(substeps):
            t = t0 + ss * h
            a0 = (t - t0) / (t1 - t0)
            am = (t + 0.5 * h - t0) / (t1 - t0)
            a1 = (t + h - t0) / (t1 - t0)
            for c in range(d_dims):
                for pnt in range(npts):
                    base = vflat[f, c, pnt]
                    nxt = vflat[f + 1, c, pnt]
                    v0[c, pnt] = (1.0 - a0) * base + a0 * nxt
                    vm[c, pnt] = (1.0 - am) * base + am * nxt
                    v1[c, pnt] = (1.0 - a1) * base + a1 * nxt
            for smp in range(nsamples):
                if escaped[smp]:
                    continue
                x = xcur[smp]
                geom = (x_first, dx, n, d_dims, strides, periodic)
                _interp_point(v0, x, *geom, k1)
                for d in range(d_dims):
                    xt[d] = x[d] + 0.5 * h * k1[d]
                _interp_point(vm, xt, *geom, k2)
                for d in range(d_dims):
                    xt[d] = x[d] + 0.5 * h * k2[d]
                _interp_point(vm, xt, *geom, k3)
                for d in range(d_dims):
                    xt[d] = x[d] + h * k3[d]
                _interp_point(v1, xt, *geom, k4)
                for d in range(d_dims):
                    xd = x[d] + (h / 6.0) * (k1[d] + 2 * k2[d] + 2 * k3[d] + k4[d])
                    if periodic:
                        xd = lo + (xd - lo) % length
                    elif xd < lo:
                        if lo - xd < dx:
                            xd = 2 * lo - xd
                        else:
                            escaped[smp] = 1
                            xd = lo
                    elif xd > hi:
                        if xd - hi < dx:
                            xd = 2 * hi - xd
                        else:
                            escaped[smp] = 1
                            xd = hi
                    xcur[smp, d] = xd
        paths[:, f + 1, :] = xcur
    return paths, escaped


def _loop_forces(x, m, omega, kappa, out):
    nsamples, npart = x.shape
    for s in range(nsamples):
        for a in range(npart):
            f = -m[a] * (omega[a] * omega[a]) * x[s, a]
            if kappa != 0.0:
                if a < npart - 1:
                    f += kappa * (x[s, a + 1] - x[s, a])
                if a > 0:
                    f -= kappa * (x[s, a] - x[s, a - 1])
            out[s, a] = f


def loop_verlet(x, p, m, omega, kappa, dt, steps, store_stride):
    """Updates x and p in place; pass copies."""
    nsamples, npart = x.shape
    nstore = steps // store_stride + 1
    xs = np.empty((nstore, nsamples, npart))
    ps = np.empty((nstore, nsamples, npart))
    xs[0] = x
    ps[0] = p
    f = np.empty_like(x)
    _loop_forces(x, m, omega, kappa, f)
    k = 1
    for step in range(1, steps + 1):
        for s in range(nsamples):
            for a in range(npart):
                p[s, a] += 0.5 * dt * f[s, a]
                x[s, a] += dt * p[s, a] / m[a]
        _loop_forces(x, m, omega, kappa, f)
        for s in range(nsamples):
            for a in range(npart):
                p[s, a] += 0.5 * dt * f[s, a]
        if step % store_stride == 0:
            xs[k] = x
            ps[k] = p
            k += 1
    return xs, ps


def random_rk4_inputs(seed, d_dims=1, n=32, nframes=6, nsamples=50,
                      periodic=True, speed=0.3):
    rng = np.random.default_rng(seed)
    lo, hi = -2.0, 2.0
    dx = (hi - lo) / n if periodic else (hi - lo) / (n + 1)
    x_first = lo if periodic else lo + dx
    times = np.linspace(0.0, 0.5, nframes)
    vflat = speed * rng.standard_normal((nframes, d_dims, n**d_dims))
    margin = 0.2
    x0 = rng.uniform(lo + margin, hi - margin, (nsamples, d_dims))
    return x0, times, vflat, x_first, dx, n, periodic, 2, lo, hi


class TestRk4Agreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_paths_bit_identical(self, seed, periodic):
        args = random_rk4_inputs(seed, periodic=periodic)
        p1, e1 = loop_rk4_paths(*args)
        p2, e2 = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(e1, e2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("speed", [1.0, 3.0])
    def test_wall_reflections_bit_identical(self, seed, speed):
        # fast enough to overshoot the dirichlet walls, mostly by less than
        # dx; the paths of escaped samples are not compared, since a run
        # with any escape is an error (TrajectoryEscapedDomain)
        args = random_rk4_inputs(seed, periodic=False, speed=speed)
        p1, e1 = loop_rk4_paths(*args)
        p2, e2 = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(e1, e2)
        kept = e1 == 0
        np.testing.assert_array_equal(p1[kept], p2[kept])

    def test_2d_bit_identical(self):
        args = random_rk4_inputs(4, d_dims=2, n=16, nsamples=20)
        p1, _ = loop_rk4_paths(*args)
        p2, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)


class TestVerletAgreement:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4),
           st.floats(0.0, 2.0))
    def test_bit_identical(self, seed, npart, kappa):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((8, npart))
        p0 = rng.standard_normal((8, npart))
        m = rng.uniform(0.5, 2.0, npart)
        om = rng.uniform(0.5, 2.0, npart)
        a = loop_verlet(x0.copy(), p0.copy(), m, om, kappa, 1e-3, 50, 10)
        b = kernels.verlet(x0, p0, m, om, kappa, 1e-3, 50, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestVerletPhysics:
    def test_symplectic_energy_bound(self):
        # harmonic oscillator: Verlet energy error stays O(dt^2), no drift
        x0 = np.array([[1.0]])
        p0 = np.array([[0.0]])
        xs, ps = kernels.verlet(x0, p0, [1.0], [1.0], 0.0, 1e-3, 100_000, 10_000)
        e = 0.5 * ps[:, 0, 0] ** 2 + 0.5 * xs[:, 0, 0] ** 2
        assert np.max(np.abs(e - e[0])) < 1e-6

    def test_harmonic_rotation(self):
        x0 = np.array([[1.0]])
        p0 = np.array([[0.0]])
        t = 1.0
        steps = 10_000
        xs, ps = kernels.verlet(x0, p0, [1.0], [1.0], 0.0, t / steps, steps,
                                steps)
        assert xs[-1, 0, 0] == pytest.approx(np.cos(t), abs=1e-7)
        assert ps[-1, 0, 0] == pytest.approx(-np.sin(t), abs=1e-7)

    def test_chain_coupling_direction(self):
        # two particles pulled together by the spring term
        x0 = np.array([[-1.0, 1.0]])
        p0 = np.zeros((1, 2))
        xs, _ = kernels.verlet(x0, p0, [1.0, 1.0], [0.0, 0.0], 1.0, 1e-3,
                               1000, 1000)
        assert xs[-1, 0, 1] - xs[-1, 0, 0] < 2.0


class TestReflection:
    def test_small_overshoot_reflects(self):
        n = 32
        lo, hi = 0.0, 1.0
        dx = (hi - lo) / (n + 1)
        times = np.array([0.0, 0.1])
        vflat = np.full((2, 1, n), 0.05)  # gentle outward drift
        x0 = np.array([[hi - dx * 1.5]])
        paths, escaped = kernels.rk4_paths(x0, times, vflat, lo + dx, dx, n,
                                           False, 1, lo, hi)
        assert not escaped.any()
        assert paths[0, -1, 0] <= hi
