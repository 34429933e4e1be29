"""Hot numeric kernels: RK4 trajectory advection and velocity-Verlet.

Both are vectorized numpy, looping over time steps only; every sample moves
in the same array operations.  tests/test_kernels.py holds per-sample loop
versions of both as slow reference oracles and requires bit-identical
results from them.

Velocity grids are passed flattened: vflat[frame, component, point] with
C-order point index over the D position axes.
"""

from __future__ import annotations

import numpy as np

# there is no jit path; kept because perfbench/run.py's environment probe reads it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# multilinear interpolation + RK4 (vectorized over samples)

def _interp_batch(vcomp, x, x_first, dx, n, periodic):
    """vcomp: (D, npts) flat velocity; x: (nsamples, D) -> (nsamples, D)."""
    nsamples, d_dims = x.shape
    strides = np.array([n**k for k in range(d_dims - 1, -1, -1)], dtype=np.int64)
    u = (x - x_first) / dx
    if periodic:
        i0 = np.floor(u).astype(np.int64)
        frac = u - i0
        i0 = np.mod(i0, n)
        i1 = np.mod(i0 + 1, n)
    else:
        u = np.clip(u, 0.0, n - 1.0)
        i0 = np.minimum(np.floor(u).astype(np.int64), n - 2)
        frac = u - i0
        i1 = i0 + 1
    out = np.zeros((nsamples, d_dims))
    for corner in range(1 << d_dims):
        w = np.ones(nsamples)
        flat = np.zeros(nsamples, dtype=np.int64)
        for d in range(d_dims):
            if (corner >> d) & 1:
                w = w * frac[:, d]
                flat = flat + i1[:, d] * strides[d]
            else:
                w = w * (1.0 - frac[:, d])
                flat = flat + i0[:, d] * strides[d]
        out += w[:, None] * vcomp[:, flat].T
    return out


def rk4_paths(x0, frame_times, vflat, x_first, dx, n, periodic, substeps, lo, hi):
    """Advect samples through interpolated velocity frames with fixed-step RK4.

    Returns (paths[nsamples, nframes, D], escaped[nsamples]).
    """
    x = np.array(x0, dtype=np.float64)
    frame_times = np.ascontiguousarray(frame_times, dtype=np.float64)
    vflat = np.ascontiguousarray(vflat, dtype=np.float64)
    x_first, dx, lo, hi = float(x_first), float(dx), float(lo), float(hi)
    n, periodic, substeps = int(n), bool(periodic), int(substeps)
    nsamples, d_dims = x.shape
    nf = frame_times.shape[0]
    paths = np.empty((nsamples, nf, d_dims))
    escaped = np.zeros(nsamples, np.uint8)
    paths[:, 0, :] = x
    length = hi - lo
    for f in range(nf - 1):
        t0, t1 = frame_times[f], frame_times[f + 1]
        h = (t1 - t0) / substeps
        for ss in range(substeps):
            t = t0 + ss * h
            a0 = (t - t0) / (t1 - t0)
            am = (t + 0.5 * h - t0) / (t1 - t0)
            a1 = (t + h - t0) / (t1 - t0)
            v0 = (1 - a0) * vflat[f] + a0 * vflat[f + 1]
            vm = (1 - am) * vflat[f] + am * vflat[f + 1]
            v1 = (1 - a1) * vflat[f] + a1 * vflat[f + 1]
            k1 = _interp_batch(v0, x, x_first, dx, n, periodic)
            k2 = _interp_batch(vm, x + 0.5 * h * k1, x_first, dx, n, periodic)
            k3 = _interp_batch(vm, x + 0.5 * h * k2, x_first, dx, n, periodic)
            k4 = _interp_batch(v1, x + h * k3, x_first, dx, n, periodic)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if periodic:
                x = lo + np.mod(x - lo, length)
            else:
                under = x < lo
                over = x > hi
                small_u = under & (lo - x < dx)
                small_o = over & (x - hi < dx)
                x = np.where(small_u, 2 * lo - x, x)
                x = np.where(small_o, 2 * hi - x, x)
                bad = (under & ~small_u) | (over & ~small_o)
                escaped |= bad.any(axis=1).astype(np.uint8)
                x = np.clip(x, lo, hi)  # freeze escaped samples at the wall
        paths[:, f + 1, :] = x
    return paths, escaped


# ---------------------------------------------------------------------------
# velocity-Verlet for separable classical Hamiltonians
# V = sum_a (1/2) m_a w_a^2 x_a^2 + (kappa/2) sum_a (x_{a+1} - x_a)^2

def forces(x, m, omega, kappa):
    """-dV/dx for states x of shape (nsamples, nparticles)."""
    f = -m * omega**2 * x
    if kappa != 0.0:
        npart = x.shape[1]
        if npart > 1:
            d = np.diff(x, axis=1)  # x_{a+1} - x_a
            f[:, :-1] += kappa * d
            f[:, 1:] -= kappa * d
    return f


def verlet(x0, p0, masses, omegas, kappa, dt, steps, store_stride=1):
    """Symplectic velocity-Verlet; returns stored (xs, ps) with the initial
    state first, shapes (nstored, nsamples, nparticles)."""
    x = np.asarray(x0, dtype=np.float64)
    p = np.asarray(p0, dtype=np.float64)
    m = np.asarray(masses, dtype=np.float64)
    om = np.asarray(omegas, dtype=np.float64)
    kappa, dt = float(kappa), float(dt)
    steps, store_stride = int(steps), int(store_stride)
    nstore = steps // store_stride + 1
    nsamples, npart = x.shape
    xs = np.empty((nstore, nsamples, npart))
    ps = np.empty((nstore, nsamples, npart))
    xs[0], ps[0] = x, p
    f = forces(x, m, om, kappa)
    k = 1
    for step in range(1, steps + 1):
        p = p + 0.5 * dt * f
        x = x + dt * p / m
        f = forces(x, m, om, kappa)
        p = p + 0.5 * dt * f
        if step % store_stride == 0:
            xs[k], ps[k] = x, p
            k += 1
    return xs, ps
