"""Machine-speed reference for timing on a shared machine.

On a machine shared with other tenants the solver's timings swing by up to
1.5x within seconds, as neighbours load the cores.  A fixed pure-numpy
kernel that touches no solver code, timed right before and after each
piece of measured work, slows down by about the same factor.  The benchmark
reports each timing scaled by REFERENCE_S / (kernel seconds), that is, in
seconds at the machine speed at which the kernel takes REFERENCE_S.  Changes to the
solver move the scaled timings as they move the raw ones; the kernel itself
never changes with the solver.
"""

import time

import numpy as np

# Kernel time on the reference machine (2-CPU Xeon, numpy 2.4) when it was
# quiet; sets the scale of the reported timings only.
REFERENCE_S = 0.02


class SpeedProbe:
    """Callable returning the seconds one run of the kernel took.

    The kernel mixes the two kinds of work the solver does: elementwise
    arithmetic on arrays about the size of an mf2d interface array, and
    many calls on small arrays (an mf1d line) including a batched 5x5
    matrix-vector einsum.  Either kind alone tracked the other workload's
    slowdowns less well.  It allocates nothing, so its time does not depend
    on what the allocator was left doing by the work before it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = _Elementwise(rng, (40, 160, 6))
        self.small = _Elementwise(rng, (1, 1000, 5))
        self.mat = rng.random((1, 1000, 5, 5))
        self.vec = np.empty((1, 1000, 5))

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(20):
            self.big()
        for _ in range(50):
            self.small()
            np.einsum('...ij,...j->...i', self.mat, self.small.f, out=self.vec)
        return time.perf_counter() - t0


class _Elementwise:
    """f = sqrt|e| + e^2 with e = where(d > 0.5, d, c), d = max(c, a)/(1 + b),
    c = a b + (a - b)/2, then differences of (f, e) along axis 1; all in
    preallocated buffers."""

    def __init__(self, rng, shape):
        self.a, self.b = rng.random((2,) + shape)
        self.c, self.d, self.e, self.f = np.empty((4,) + shape)
        self.mask = np.empty(shape, dtype=bool)
        self.g = np.empty((2,) + shape)
        self.h = np.empty((2, shape[0], shape[1] - 1, shape[2]))

    def __call__(self):
        a, b, c, d, e, f, g = (self.a, self.b, self.c, self.d, self.e,
                               self.f, self.g)
        np.multiply(a, b, out=c)
        np.subtract(a, b, out=d)
        d *= 0.5
        c += d
        np.maximum(c, a, out=d)
        np.add(b, 1.0, out=e)
        d /= e
        np.greater(d, 0.5, out=self.mask)
        np.copyto(e, c)
        np.copyto(e, d, where=self.mask)
        np.abs(e, out=f)
        np.sqrt(f, out=f)
        np.multiply(e, e, out=c)
        f += c
        g[0] = f
        g[1] = e
        np.subtract(g[:, :, 1:, :], g[:, :, :-1, :], out=self.h)


def scaled(seconds, probe_seconds):
    """seconds at the reference machine speed."""
    return seconds * REFERENCE_S / probe_seconds
