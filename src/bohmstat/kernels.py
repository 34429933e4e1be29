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
component-major, x[component, sample].  Each substep blends the three
time-interpolated velocities in place into buffers allocated once per
call.  On a periodic grid each buffer is padded with one wrapped point per
axis (point n repeats point 0), so each of the 2^D cell corners lies a
fixed flat offset above the cell's lower corner.  A corner is then a view
of the flattened buffer from its offset on, gathered at the lower corner's
flat index with one np.take(mode="clip") for all components (the indices
are in range by construction, so no bounds check is needed), and its
weight multiplies whole rows.  The fractional position is taken against
the float floor.  The wrap of floors and positions, and the Dirichlet wall
reflection, do their boolean indexing only when some sample is outside.
The RK4 state, stages and interpolation scratch are updated in place.
"""

from __future__ import annotations

import numpy as np

# there is no jit path; kept because perfbench/run.py's environment probe reads it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# multilinear interpolation + RK4 (vectorized over samples)

def _wrap(y, period):
    """y = np.mod(y, period) in place.  np.mod returns y itself where
    0 <= y < period, so only the entries outside take the slow remainder,
    and the boolean indexing runs only when there are any."""
    if y.min() < 0 or y.max() >= period:
        outside = (y < 0) | (y >= period)
        y[outside] = np.mod(y[outside], period)


def _interp_batch(corners, x, x_first, dx, n, m, periodic, out, scratch,
                  index):
    """Interpolate one velocity buffer of rk4_paths at x (D, nsamples) into
    out (D, nsamples).

    corners[c] is the flattened (D, m^D) buffer from the flat offset of the
    cell's corner c onward, so gathering it at the lower corner's index
    gathers corner c.  scratch is (frac, rest, term, weight): three
    (D, nsamples) and one (nsamples,) float64 arrays; index is (D, nsamples)
    int64; all are overwritten."""
    d_dims = x.shape[0]
    frac, rest, term, weight = scratch
    np.subtract(x, x_first, out=frac)
    frac /= dx                              # u
    if not periodic:
        np.clip(frac, 0.0, n - 1.0, out=frac)
    np.floor(frac, out=rest)
    if not periodic:
        np.minimum(rest, n - 2.0, out=rest)
    frac -= rest
    if periodic:
        _wrap(rest, n)
    # the lower corner's flat point index, exact in float64, then one flat
    # index per component: component c's rows start at c m^D
    base = rest[0]
    if d_dims > 1:
        base = term[0]
        np.multiply(rest[0], m, out=base)
        base += rest[1]
        for d in range(2, d_dims):
            base *= m
            base += rest[d]
    index[...] = base
    if d_dims > 1:
        index += np.arange(0, d_dims * m**d_dims, m**d_dims)[:, None]
    np.subtract(1.0, frac, out=rest)
    out[...] = 0.0
    for corner, v in enumerate(corners):
        # the weight is the product over axes in axis order, as in the oracle
        w = frac[0] if corner & 1 else rest[0]
        for d in range(1, d_dims):
            np.multiply(w, frac[d] if (corner >> d) & 1 else rest[d],
                        out=weight)
            w = weight
        v.take(index, out=term, mode="clip")  # in range by construction
        term *= w
        out += term
    return out


def rk4_paths(x0, frame_times, vflat, x_first, dx, n, periodic, substeps, lo, hi):
    """Advect samples through interpolated velocity frames with fixed-step RK4.

    Returns (paths[nsamples, nframes, D], escaped[nsamples]).

    The state, the four stages, the interpolation scratch and the three
    blended velocities live in arrays allocated per call and updated in
    place, in the operation order of the oracle.  A streamed run calls this
    once per pair of frames; with a fresh array per operation, the heap
    grew and shrank on every call and refaulted its pages (twice the minor
    page faults of one call over every frame, in the bohm_full config).
    x0 and vflat are not modified.
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
    scratch = (*work[6:], np.empty(nsamples))
    index = np.empty((d_dims, nsamples), dtype=np.int64)
    # v0, vm and v1 of a substep on m points per axis.  A periodic buffer
    # repeats point 0 at point n of every axis, so the upper corner of the
    # last cell needs no wrap and each corner is a fixed flat offset from
    # the lower one.
    m = n + 1 if periodic else n
    points = (m,) * d_dims
    vbuf = np.empty((3, d_dims) + points)
    inner = vbuf[(slice(None), slice(None)) + (slice(0, n),) * d_dims]
    pads = [(vbuf[(slice(None),) * (2 + d) + (n,)],
             vbuf[(slice(None),) * (2 + d) + (0,)])
            for d in range(d_dims) if periodic]
    offsets = [int(np.ravel_multi_index([(c >> d) & 1 for d in range(d_dims)],
                                        points))
               for c in range(1 << d_dims)]
    v0, vm, v1 = [[buf.reshape(-1)[off:] for off in offsets] for buf in vbuf]
    frames = vflat.reshape((nf, d_dims) + (n,) * d_dims)
    blend = np.empty(frames.shape[1:])
    geom = (x_first, dx, n, m, periodic)
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
            for v, a in zip(inner, (a0, am, a1)):
                # (1 - a) V_f + a V_{f+1}, in the oracle's order
                np.multiply(frames[f], 1 - a, out=v)
                np.multiply(frames[f + 1], a, out=blend)
                v += blend
            for dst, src in pads:
                dst[...] = src
            _interp_batch(v0, x, *geom, k1, scratch, index)
            np.multiply(0.5 * h, k1, out=stage)     # x + 0.5 h k1
            stage += x
            _interp_batch(vm, stage, *geom, k2, scratch, index)
            np.multiply(0.5 * h, k2, out=stage)
            stage += x
            _interp_batch(vm, stage, *geom, k3, scratch, index)
            np.multiply(h, k3, out=stage)
            stage += x
            _interp_batch(v1, stage, *geom, k4, scratch, index)
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
            elif x.min() < lo or x.max() > hi:  # a sample left the box
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


def rk4_working_bytes(nsamples, d_dims, n, periodic):
    """The most one rk4_paths call allocates besides what it returns: nine
    (D, nsamples) float64 arrays of state, stages and scratch, the weight
    row, the corner index, two (D, nsamples) temporaries of a wall
    reflection, and the three blended velocities with the blend's (D, n^D)
    term."""
    m = n + 1 if periodic else n
    return 8 * (nsamples * (12 * d_dims + 1)
                + d_dims * (3 * m**d_dims + n**d_dims))


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
