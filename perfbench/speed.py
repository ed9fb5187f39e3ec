"""A fixed reference kernel that measures how fast the machine is right now.

On a shared virtual machine the same operation can take 30% longer for
seconds to minutes at a time, while the work stays the same. The benchmark
times this kernel between operations and scales each operation's wall time
by ``REFERENCE_S / kernel time``: the result reads as seconds on a machine
where the kernel takes ``REFERENCE_S``. The kernel touches no code of the
package, so a change to the package moves the scaled time as much as the
wall time. Its mix follows the solver's hot path: a Python loop of small
complex ``tensordot``/``einsum`` calls, as in ``SiteProblem.matvec``, and one
dense ``numpy.linalg.eig`` of the size of a local problem.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds on the 2-core x86_64 virtual machine (OpenBLAS 0.3.31, one
# thread) the benchmark was built on, in its usual, slower state.
REFERENCE_S = 0.07
LOOP = 400


class SpeedProbe:
    """Times the reference kernel; its inputs are fixed, whatever the seed."""

    def __init__(self):
        rng = np.random.default_rng(20220615)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._a, self._b, self._m = cplx(4, 16, 16), cplx(16, 4, 12), cplx(128, 128)
        self()  # first call pays for lazy set-up in numpy and LAPACK

    def __call__(self):
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        for _ in range(LOOP):
            x = np.tensordot(self._a, self._b, axes=([1], [0]))
            np.einsum("aibk->abik", x).reshape(16, -1)
        np.linalg.eig(self._m)
        return time.perf_counter() - start


def scaled(wall_s, kernel_before_s, kernel_after_s):
    """`wall_s` in reference seconds, from the kernel times around it."""
    return wall_s * REFERENCE_S / (0.5 * (kernel_before_s + kernel_after_s))
