"""Timing comparison of the jitted kernels against the vectorized numpy
fallback (the path selected at import time by BOHM_NO_NUMBA=1).

Both implementations are bit-identical by construction; this script measures
the speed gap on the two hot loops: RK4 trajectory advection through velocity
frames, and velocity-Verlet ensemble integration.  Without the jit (numba not
importable, or BOHM_NO_NUMBA set) only the numpy path is timed.

Usage: python3 benchmarks/bench_kernels.py [--samples N] [--repeat K]
"""

import argparse
import os
import time

import numpy as np

from bohmstat import kernels


def _time(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_rk4(samples, repeat):
    rng = np.random.default_rng(0)
    n, nframes, d = 256, 51, 1
    lo, hi = -16.0, 16.0
    dx = (hi - lo) / n
    x_first = lo
    times = np.linspace(0.0, 1.0, nframes)
    vflat = rng.standard_normal((nframes, d, n)) * 0.3
    x0 = rng.uniform(lo, hi, (samples, d))
    args = (times, vflat, x_first, dx, n, True, 2, lo, hi)

    def numba_path():
        return kernels._rk4_paths_numba(x0.copy(), *args)[0]

    def numpy_path():
        return kernels._rk4_paths_numpy(x0.copy(), *args)[0]

    t_numpy, p2 = _time(numpy_path, repeat)
    if not kernels.NUMBA_ENABLED:
        return None, t_numpy
    numba_path()  # compile outside the timed region
    t_numba, p1 = _time(numba_path, repeat)
    assert np.array_equal(p1, p2), "kernel paths diverged"
    return t_numba, t_numpy


def bench_verlet(samples, repeat):
    rng = np.random.default_rng(1)
    n_part = 8
    x0 = rng.standard_normal((samples, n_part))
    p0 = rng.standard_normal((samples, n_part))
    masses = np.ones(n_part)
    omegas = np.ones(n_part)

    def run():
        return kernels.verlet(x0, p0, masses, omegas, 0.3, 1e-3, 2000, 200)

    # the numpy fallback is reachable directly regardless of the flag
    def run_numpy():
        return kernels._verlet_numpy(x0.copy(), p0.copy(), masses, omegas,
                                     0.3, 1e-3, 2000, 200)

    t_off, _ = _time(run_numpy, repeat)
    if not kernels.NUMBA_ENABLED:
        return None, t_off
    run()  # compile outside the timed region
    t_on, _ = _time(run, repeat)
    return t_on, t_off


def _report(label, t_jit, t_numpy):
    if t_jit is None:
        jit = "jit: unavailable (numba not importable)"
        if os.environ.get("BOHM_NO_NUMBA", "") not in ("", "0"):
            jit = "jit: off (BOHM_NO_NUMBA set)"
        print(f"{label}: numpy {t_numpy*1e3:8.1f} ms   {jit}")
    else:
        print(f"{label}: jit {t_jit*1e3:8.1f} ms   numpy {t_numpy*1e3:8.1f} ms"
              f"   speedup {t_numpy/t_jit:5.2f}x")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    print(f"kernel mode: {'numba' if kernels.NUMBA_ENABLED else 'numpy'}")
    _report(f"rk4_paths   {args.samples} samples x 51 frames",
            *bench_rk4(args.samples, args.repeat))
    _report(f"verlet      {args.samples} samples x 2000 steps",
            *bench_verlet(args.samples, args.repeat))


if __name__ == "__main__":
    main()
