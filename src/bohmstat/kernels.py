"""Hot numeric kernels: RK4 trajectory advection and velocity-Verlet.

RK4 is vectorized numpy, looping over time steps only; every sample moves in
the same array operations.  A velocity-Verlet step of the classical twin's
Hamiltonians is a fixed linear map of (x, p), so verlet builds its 2N x 2N
matrix once and moves the whole ensemble from one stored frame to the next
by one matrix power.  tests/test_kernels.py holds per-sample loop versions
of both as slow reference oracles: rk4_paths must match its loop bit for
bit, verlet's one-step matrix must match one loop step of the unit vectors
bit for bit, and its frames the loop's frames to round-off.

Velocity grids are passed flattened: vflat[frame, component, point] with
C-order point index over the D position axes.  rk4_paths holds positions
component-major, x[component, sample], so each of the 2^D interpolation
corners gathers contiguous velocity rows with one np.take for all
components, and the corner weight multiplies whole rows; the RK4 state,
stages and interpolation scratch are updated in place.
"""

from __future__ import annotations

import numpy as np

# there is no jit path; kept because perfbench/run.py's environment probe reads it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# multilinear interpolation + RK4 (vectorized over samples)

def _wrap(y, period):
    """y = np.mod(y, period) in place.  np.mod returns y itself where
    0 <= y < period, so only the entries outside take the slow remainder."""
    outside = (y < 0) | (y >= period)
    y[outside] = np.mod(y[outside], period)


def _interp_batch(vcomp, x, x_first, dx, n, periodic, out, scratch, index):
    """Interpolate vcomp (D, npts) at x (D, nsamples) into out (D, nsamples).

    scratch is (3, D, nsamples) float64 and index (2, D, nsamples) int64
    work space, overwritten."""
    d_dims = x.shape[0]
    frac, rest, term = scratch
    i0, i1 = index
    np.subtract(x, x_first, out=frac)
    frac /= dx                              # u
    if not periodic:
        np.clip(frac, 0.0, n - 1.0, out=frac)
    np.floor(frac, out=rest)
    i0[...] = rest                          # floor(u) as an integer
    if periodic:
        frac -= i0
        _wrap(i0, n)
        np.add(i0, 1, out=i1)
        i1[i1 == n] = 0
    else:
        np.minimum(i0, n - 2, out=i0)
        frac -= i0
        np.add(i0, 1, out=i1)
    np.subtract(1.0, frac, out=rest)
    if d_dims > 1:
        strides = np.array([n**k for k in range(d_dims - 1, -1, -1)],
                           dtype=np.int64)
        i0 *= strides[:, None]
        i1 *= strides[:, None]
    out[...] = 0.0
    for corner in range(1 << d_dims):
        # the weight is the product over axes in axis order, as in the oracle
        upper = corner & 1
        w = frac[0] if upper else rest[0]
        flat = i1[0] if upper else i0[0]
        for d in range(1, d_dims):
            if (corner >> d) & 1:
                w = w * frac[d]
                flat = flat + i1[d]
            else:
                w = w * rest[d]
                flat = flat + i0[d]
        np.take(vcomp, flat, axis=1, out=term)
        term *= w
        out += term
    return out


def rk4_paths(x0, frame_times, vflat, x_first, dx, n, periodic, substeps, lo, hi):
    """Advect samples through interpolated velocity frames with fixed-step RK4.

    Returns (paths[nsamples, nframes, D], escaped[nsamples]).

    The state, the four stages and the interpolation scratch live in one
    float64 block (and the corner indices in one int64 block) allocated per
    call and updated in place, in the operation order of the oracle.  A
    streamed run calls this once per pair of frames; with a fresh array per
    operation, the heap grew and shrank on every call and refaulted its
    pages (twice the minor page faults of one call over every frame, in
    the bohm_full config).
    """
    frame_times = np.ascontiguousarray(frame_times, dtype=np.float64)
    vflat = np.ascontiguousarray(vflat, dtype=np.float64)
    x_first, dx, lo, hi = float(x_first), float(dx), float(lo), float(hi)
    n, periodic, substeps = int(n), bool(periodic), int(substeps)
    x0 = np.asarray(x0, dtype=np.float64)
    nsamples, d_dims = x0.shape
    nf = frame_times.shape[0]
    work = np.empty((9, d_dims, nsamples))
    x, k1, k2, k3, k4, stage = work[:6]
    scratch = work[6:]
    index = np.empty((2, d_dims, nsamples), dtype=np.int64)
    x[...] = x0.T
    paths = np.empty((nsamples, nf, d_dims))
    escaped = np.zeros(nsamples, np.uint8)
    paths[:, 0, :] = x.T
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
            _interp_batch(v0, x, x_first, dx, n, periodic, k1, scratch, index)
            np.multiply(0.5 * h, k1, out=stage)     # x + 0.5 h k1
            stage += x
            _interp_batch(vm, stage, x_first, dx, n, periodic, k2, scratch, index)
            np.multiply(0.5 * h, k2, out=stage)
            stage += x
            _interp_batch(vm, stage, x_first, dx, n, periodic, k3, scratch, index)
            np.multiply(h, k3, out=stage)
            stage += x
            _interp_batch(v1, stage, x_first, dx, n, periodic, k4, scratch, index)
            # x + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2
            k1 += k2
            k3 *= 2
            k1 += k3
            k1 += k4
            k1 *= h / 6.0
            x += k1
            if periodic:
                x -= lo
                _wrap(x, length)
                x += lo
            else:
                under = x < lo
                over = x > hi
                small_u = under & (lo - x < dx)
                small_o = over & (x - hi < dx)
                np.copyto(x, 2 * lo - x, where=small_u)
                np.copyto(x, 2 * hi - x, where=small_o)
                bad = (under & ~small_u) | (over & ~small_o)
                escaped |= bad.any(axis=0).astype(np.uint8)
                # escaped samples are put back on the wall and keep moving
                # from there on later substeps; their paths are not
                # meaningful, and the caller raises on any escape flag
                np.clip(x, lo, hi, out=x)
        paths[:, f + 1, :] = x.T
    return paths, escaped


# ---------------------------------------------------------------------------
# velocity-Verlet for separable classical Hamiltonians
# V = sum_a (1/2) m_a w_a^2 x_a^2 + (kappa/2) sum_a (x_{a+1} - x_a)^2

def forces_into(f, x, stiffness, kappa, diff):
    """f = -dV/dx for particle-major states x[particle, sample], with
    stiffness = -m w^2 per particle; diff is scratch of x[1:]'s shape."""
    np.multiply(stiffness[:, None], x, out=f)
    if kappa != 0.0 and x.shape[0] > 1:
        np.subtract(x[1:], x[:-1], out=diff)  # x_{a+1} - x_a
        diff *= kappa
        f[:-1] += diff
        f[1:] -= diff
    return f


def verlet_matrix(masses, omegas, kappa, dt):
    """The 2N x 2N matrix M of one velocity-Verlet step of size dt: a
    phase-space row z = (x_1..x_N, p_1..p_N) moves to z @ M.

    The step is linear for this family, so row j of M is the image of unit
    vector j, and the 2N unit vectors are stepped once, particle-major, with
    the kick-drift-kick arithmetic p += (dt/2) f(x), x += dt p / m,
    p += (dt/2) f(x)."""
    m = np.asarray(masses, dtype=np.float64)
    stiffness = -m * np.asarray(omegas, dtype=np.float64)**2
    kappa, dt = float(kappa), float(dt)
    n = m.shape[0]
    z = np.eye(2 * n)
    x, p = z[:n], z[n:]         # column j: unit vector j, stepped in place
    f = np.empty_like(x)
    diff = np.empty((max(n - 1, 0), 2 * n))
    half = 0.5 * dt
    p += half * forces_into(f, x, stiffness, kappa, diff)
    x += dt * p / m[:, None]
    p += half * forces_into(f, x, stiffness, kappa, diff)
    return z.T.copy()


def verlet(x0, p0, masses, omegas, kappa, dt, steps, store_stride=1):
    """Symplectic velocity-Verlet; returns stored (xs, ps) with the initial
    state first and every store_stride-th step after it, plus the last step
    when it is off-stride; shapes (nstored, nsamples, nparticles).

    No step is taken one at a time: each stored frame is the one before it
    times M^store_stride (M from verlet_matrix, powered by repeated
    squaring), and an off-stride last frame takes M^(steps % store_stride),
    so the cost is O(log steps + frames x samples).  The frames agree with
    stepping one step at a time to round-off, not bit for bit; x0 and p0 are
    not modified."""
    x0 = np.asarray(x0, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    steps, store_stride = int(steps), int(store_stride)
    nsamples, n = x0.shape
    step = verlet_matrix(masses, omegas, kappa, dt)
    whole, rest = divmod(steps, store_stride)
    z = np.empty((whole + 1 + (rest != 0), nsamples, 2 * n))
    z[0, :, :n], z[0, :, n:] = x0, p0
    if whole:
        stride = np.linalg.matrix_power(step, store_stride)
        for k in range(1, whole + 1):
            np.matmul(z[k - 1], stride, out=z[k])
    if rest:
        np.matmul(z[whole], np.linalg.matrix_power(step, rest), out=z[-1])
    return z[..., :n].copy(), z[..., n:].copy()
