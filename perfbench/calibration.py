"""A fixed reference kernel that measures the machine's current speed.

The benchmark runs on shared hosts whose speed changes by up to 2x within
seconds and drifts over minutes, as other tenants load the cores. Every op
of a run is therefore followed by a slice of this kernel, and each op's
latency is rescaled by how fast the kernel ran around it:

    calibrated latency = wall latency * REFERENCE_S / reference seconds per call

The kernel is cyclic Jacobi rotations on fixed small complex Hermitian
matrices, written here against numpy alone. It does the kind of work opcheck's
ops do (interpreter overhead, scalar math, small-array numpy calls), so
contention slows both alike; and it is no part of opcheck, so a change to the
program never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# seconds per kernel call that calibrated times are expressed at; about the
# mean call time on a shared 2-core Intel Xeon virtual machine
REFERENCE_S = 0.001
# the kernel runs after each op for at least this share of the op's latency
SLICE_SHARE = 0.1
# and for this long once imports are done, so set-up is calibrated too
IMPORT_SLICE_S = 0.02
SWEEPS = 3


def _matrices() -> list:
    rng = np.random.default_rng(20191123)
    out = []
    for n in (3, 5):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(g @ g.conj().T / n)
    return out


_MATRICES = _matrices()


def kernel() -> float:
    """One call: SWEEPS Jacobi sweeps on each fixed matrix; returns the
    remaining off-diagonal mass so the work cannot be skipped."""
    off = 0.0
    for a0 in _MATRICES:
        a = a0.copy()
        n = a.shape[0]
        for _ in range(SWEEPS):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    r = abs(apq)
                    if r <= 1e-300:
                        continue
                    phase = apq / r
                    theta = 0.5 * math.atan2(2.0 * r, (a[q, q] - a[p, p]).real)
                    c, s = math.cos(theta), math.sin(theta)
                    cp, cq = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * cp - s * phase.conjugate() * cq
                    a[:, q] = s * phase * cp + c * cq
                    rp, rq = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * rp - s * phase * rq
                    a[q, :] = s * phase.conjugate() * rp + c * rq
        off += float(np.linalg.norm(np.triu(a, 1)))
    return off


def run_slice(seconds: float) -> tuple:
    """Kernel calls until ``seconds`` have passed, at least one; returns
    (calls, seconds taken)."""
    calls = 0
    start = time.perf_counter()
    while True:
        kernel()
        calls += 1
        taken = time.perf_counter() - start
        if taken >= seconds:
            return calls, taken


def scale(slices: list) -> float:
    """REFERENCE_S over the kernel's mean seconds per call in ``slices``, a
    list of (calls, seconds): the factor that turns wall time spent around
    those slices into calibrated time."""
    return REFERENCE_S * sum(c for c, _ in slices) / sum(s for _, s in slices)


def calibrate(latencies: list, slices: list, block: int) -> list:
    """Each op's latency rescaled by the kernel's speed over its block of
    ``block`` consecutive ops (``slices`` holds each op's (calls, seconds)).
    A block is long enough to span the host's fast and slow spells, and short
    enough to follow its drift."""
    out = []
    for start in range(0, len(latencies), block):
        factor = scale(slices[start:start + block])
        out += [t * factor for t in latencies[start:start + block]]
    return out
