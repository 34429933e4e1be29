"""The kernels against the per-sample loops below, slow reference oracles
that spell out the RK4 stage blends, the multilinear interpolation and the
Verlet force sums one sample and one coordinate at a time, in the kernels'
floating-point operation order.  rk4_paths must reproduce its loop bit for
bit.  verlet moves samples by powers of the one-step matrix instead of step
by step: the matrix must be loop_verlet's step of the unit vectors bit for
bit, and the stored frames must agree with loop_verlet to round-off."""

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
    """Updates x and p in place; pass copies.  Stores the initial state, every
    store_stride-th step and the last step."""
    nsamples, npart = x.shape
    nstore = steps // store_stride + 1 + (steps % store_stride != 0)
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
        if step % store_stride == 0 or step == steps:
            xs[k] = x
            ps[k] = p
            k += 1
    return xs, ps


def random_rk4_inputs(seed, d_dims=1, n=32, nframes=6, nsamples=50,
                      periodic=True, speed=0.3, margin=0.2):
    rng = np.random.default_rng(seed)
    lo, hi = -2.0, 2.0
    dx = (hi - lo) / n if periodic else (hi - lo) / (n + 1)
    x_first = lo if periodic else lo + dx
    times = np.linspace(0.0, 0.5, nframes)
    vflat = speed * rng.standard_normal((nframes, d_dims, n**d_dims))
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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_periodic_wrap_bit_identical(self, seed):
        # samples start anywhere, including the last cell, whose upper
        # corner is grid point n == 0, and drift across the wrap at hi
        x0, times, vflat, *rest = random_rk4_inputs(seed, nsamples=200,
                                                    speed=1.0, margin=0.0)
        args = (x0, times, vflat + 3.0, *rest)
        hi, dx = args[-1], args[4]
        p1, _ = loop_rk4_paths(*args)
        p2, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)
        assert np.any(p1[:, :, 0] >= hi - dx)
        moved = p1[:, 1:, 0] - p1[:, :-1, 0]
        assert np.any(np.abs(moved) > 2.0)  # a jump of half the period: a wrap

    def test_2d_dirichlet_bit_identical(self):
        # fast enough that a few samples escape, mostly through one wall only
        args = random_rk4_inputs(5, d_dims=2, n=16, nsamples=60, periodic=False,
                                 speed=6.0)
        p1, e1 = loop_rk4_paths(*args)
        p2, e2 = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(e1, e2)
        kept = e1 == 0
        assert 0 < e1.sum() < 20
        np.testing.assert_array_equal(p1[kept], p2[kept])

    def test_3d_periodic_bit_identical(self):
        args = random_rk4_inputs(6, d_dims=3, n=8, nframes=4, nsamples=30,
                                 speed=1.0, margin=0.0)
        p1, _ = loop_rk4_paths(*args)
        p2, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)

    def test_periodic_moves_over_a_period_bit_identical(self):
        # a drift of 100 carries every stage more than one period (4) in a
        # substep of h = 0.05, so the floors and positions leave [0, n) and
        # [lo, hi) by more than a period and take the slow remainder
        x0, times, vflat, *rest = random_rk4_inputs(8, speed=1.0, margin=0.0)
        args = (x0, times, vflat + 100.0, *rest)
        lo, hi, substeps = args[-2], args[-1], args[-3]
        h = (times[1] - times[0]) / substeps
        assert h * args[2].min() > hi - lo
        p1, _ = loop_rk4_paths(*args)
        p2, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)

    def test_2d_periodic_last_cell_bit_identical(self):
        # n = 12, not a power of two; the first 20 samples start in the last
        # cell of both axes, whose upper corners are grid point 0 of that
        # axis, and drift slowly enough to stay there for a substep
        x0, times, vflat, x_first, dx, n, *rest = random_rk4_inputs(
            9, d_dims=2, n=12, nsamples=40, speed=0.3)
        hi = rest[-1]
        x0[:20] = np.random.default_rng(10).uniform(hi - dx, hi, (20, 2))
        args = (x0, times, vflat, x_first, dx, n, *rest)
        p1, _ = loop_rk4_paths(*args)
        p2, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(p1, p2)
        assert np.all(p1[:20, 0, :] >= hi - dx)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_leaves_inputs_unmodified(self, periodic):
        args = random_rk4_inputs(11, d_dims=2, n=16, nsamples=30,
                                 periodic=periodic, speed=3.0)
        x_keep, v_keep = args[0].copy(), args[2].copy()
        paths, _ = kernels.rk4_paths(*args)
        np.testing.assert_array_equal(args[0], x_keep)
        np.testing.assert_array_equal(args[2], v_keep)
        np.testing.assert_array_equal(paths[:, 0, :], x_keep)
        assert not np.shares_memory(paths, args[0])


class TestFramePairChaining:
    """The streamed runners advance samples one pair of velocity frames at a
    time; chained, those calls are the multi-frame call bit for bit."""

    @pytest.mark.parametrize("d_dims, n, periodic, speed", [
        (1, 32, True, 1.0), (1, 32, False, 0.3), (1, 32, False, 3.0),
        (2, 16, True, 1.0), (2, 16, False, 6.0)])
    def test_pairs_equal_one_call(self, d_dims, n, periodic, speed):
        x0, times, vflat, *rest = random_rk4_inputs(
            7, d_dims=d_dims, n=n, nsamples=60, periodic=periodic, speed=speed)
        paths, escaped = kernels.rk4_paths(x0, times, vflat, *rest)
        chained, flags = [x0], np.zeros_like(escaped)
        for f in range(len(times) - 1):
            pair, esc = kernels.rk4_paths(chained[-1], times[f:f + 2],
                                          vflat[f:f + 2], *rest)
            np.testing.assert_array_equal(pair[:, 0, :], chained[-1])
            chained.append(pair[:, 1, :])
            flags |= esc
        np.testing.assert_array_equal(np.stack(chained, axis=1), paths)
        np.testing.assert_array_equal(flags, escaped)
        if speed >= 3.0:
            assert escaped.any()


def random_chain(rng, npart):
    return rng.uniform(0.5, 2.0, npart), rng.uniform(0.5, 2.0, npart)


def loop_step_matrix(m, om, kappa, dt):
    """Rows: the 2N phase-space unit vectors after one loop_verlet step."""
    n = len(m)
    eye = np.eye(2 * n)
    xs, ps = loop_verlet(eye[:, :n].copy(), eye[:, n:].copy(), m, om, kappa,
                         dt, 1, 1)
    return np.hstack([xs[1], ps[1]])


def assert_within_round_off(a, b, steps):
    """|a - b| <= 4 steps eps max|z|: one step at a time and one matrix
    power round differently, by well under one ulp of max|z| per step."""
    scale = max(np.abs(a[0]).max(), np.abs(a[1]).max())
    tol = 4 * steps * np.finfo(float).eps * scale
    assert np.abs(a[0] - b[0]).max() <= tol
    assert np.abs(a[1] - b[1]).max() <= tol


class TestVerletAgreement:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4),
           st.floats(0.0, 2.0), st.sampled_from([1e-3, 1e-2, 0.1]))
    def test_bit_identical(self, seed, npart, kappa, dt):
        # the one-step matrix is the loop's step of the unit vectors
        m, om = random_chain(np.random.default_rng(seed), npart)
        np.testing.assert_array_equal(kernels.verlet_matrix(m, om, kappa, dt),
                                      loop_step_matrix(m, om, kappa, dt))

    @pytest.mark.parametrize("npart, kappa", [(1, 0.0), (1, 0.8), (3, 0.0),
                                              (3, 0.8)])
    @pytest.mark.parametrize("steps", [50, 53])  # on and off the stride
    def test_bit_identical_coupled_and_off_stride(self, npart, kappa, steps):
        # the one-step matrix at this dt bit for bit, the initial state
        # stored bit for bit, and every later frame to round-off
        rng = np.random.default_rng(17 + npart)
        x0 = rng.standard_normal((40, npart))
        p0 = rng.standard_normal((40, npart))
        m, om = random_chain(rng, npart)
        np.testing.assert_array_equal(kernels.verlet_matrix(m, om, kappa, 1e-2),
                                      loop_step_matrix(m, om, kappa, 1e-2))
        a = loop_verlet(x0.copy(), p0.copy(), m, om, kappa, 1e-2, steps, 10)
        b = kernels.verlet(x0, p0, m, om, kappa, 1e-2, steps, 10)
        assert len(b[0]) == 6 + (steps % 10 != 0)
        np.testing.assert_array_equal(b[0][0], x0)
        np.testing.assert_array_equal(b[1][0], p0)
        assert_within_round_off(a, b, steps)

    @pytest.mark.parametrize("npart, kappa", [(1, 0.0), (2, 2.0), (4, 0.8)])
    @pytest.mark.parametrize("steps, stride", [(37, 5), (7, 20), (20, 20),
                                               (1, 1), (0, 3)])
    def test_frames_within_round_off(self, npart, kappa, steps, stride):
        # an off-stride last frame, store_stride > steps (the initial and
        # the last state), one stride exactly, one step, and no step
        rng = np.random.default_rng(5 + npart)
        x0 = rng.standard_normal((30, npart))
        p0 = rng.standard_normal((30, npart))
        m, om = random_chain(rng, npart)
        a = loop_verlet(x0.copy(), p0.copy(), m, om, kappa, 0.05, steps, stride)
        b = kernels.verlet(x0, p0, m, om, kappa, 0.05, steps, stride)
        assert b[0].shape == a[0].shape == b[1].shape
        assert len(b[0]) == steps // stride + 1 + (steps % stride != 0)
        assert_within_round_off(a, b, max(steps, 1))

    def test_liouville_setting_within_round_off(self):
        # classical_liouville's masses, frequencies, dt, steps and stride
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((8, 2))
        p0 = rng.standard_normal((8, 2))
        m, om = [1.0, 1.3], [1.0, 0.7]
        a = loop_verlet(x0.copy(), p0.copy(), np.array(m), np.array(om), 0.0,
                        2e-4, 10_000, 1000)
        b = kernels.verlet(x0, p0, m, om, 0.0, 2e-4, 10_000, 1000)
        assert_within_round_off(a, b, 10_000)

    def test_leaves_initial_state_unmodified(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((8, 3))
        p0 = rng.standard_normal((8, 3))
        x_keep, p_keep = x0.copy(), p0.copy()
        xs, ps = kernels.verlet(x0, p0, [1.0, 2.0, 0.5], [1.0, 0.5, 2.0], 0.4,
                                1e-2, 20, 5)
        np.testing.assert_array_equal(x0, x_keep)
        np.testing.assert_array_equal(p0, p_keep)
        np.testing.assert_array_equal(xs[0], x_keep)
        np.testing.assert_array_equal(ps[0], p_keep)
        assert not np.shares_memory(xs, x0) and not np.shares_memory(ps, p0)


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
