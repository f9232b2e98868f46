"""Host-speed references: a fixed numpy kernel timed next to every op, and a
reference interpreter timed next to every set-up sample.

The shared 2-vCPU host this benchmark was written on changes speed by up
to 2x in phases of 10 to 60 s, as long as a run or longer.  Process CPU time
rises with wall time in those phases, so the core itself runs slower, and it
slows an op and a numpy kernel alike.  In a 4-minute trace that alternated
one grid op with a kernel like this one, the op's fastest time in each 30 s
window spread by 0.28 (quartile distance over median), and its ratio to the
kernel's fastest time by 0.025.  The harness therefore reports times as
they would read on a host running at a fixed nominal speed, the speed at
which the kernel takes ``NOMINAL_S``::

    normalized = measured * NOMINAL_S / mean of the kernel samples taken
                                        just before and just after

The kernel uses numpy alone, never the package, so a change to the package
does not move it.  Its mix follows the solver's inner loop: small complex
matrix products, a Kronecker product, a singular-value decomposition and a
trace, each behind a Python-level call.

Set-up time does not follow the kernel.  It runs in a fresh process, and
most of it is starting Python and importing numpy: exec, page faults and
loading shared libraries.  Between two sets of ten runs, the host ran the
kernel 39% faster in the second set but the set-up child only 29% faster.
Set-up samples are therefore scaled by a reference child that starts
Python and imports numpy, timed right after each of them::

    normalized set-up = median set-up * NOMINAL_CHILD_S / median reference child

The reference child does none of the package's work either, and the
scaling is multiplicative, so a change that adds x% to the set-up child's
time adds x% to the normalized figure.
"""

import time

import numpy as np

ROUNDS = 40
# The kernel's typical time on the host where the benchmark was written
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, scipy-openblas 0.3.31), so
# that normalized times read close to that host's wall times.
NOMINAL_S = 0.0032

REFERENCE_CHILD = "import numpy"
# The reference child's typical time on the same host.
NOMINAL_CHILD_S = 0.16

_GRID = np.arange(256.0).reshape(16, 16)
_X = ((_GRID % 7 - 3) + 1j * (_GRID.T % 5 - 2)) / 16
_B = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)


def kernel() -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        y = _X @ _X.conj().T
        z = np.kron(_B, np.kron(_B, _B))[:4, :4] + y[:4, :4]
        acc = 0.5 * acc + np.linalg.svd(z, compute_uv=False).sum() + y.trace().real
    return acc


def sample() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal speed, given kernel samples taken just
    before and just after the timed interval."""
    return seconds * 2 * NOMINAL_S / (before + after)


def normalize_child(seconds: float, reference: float) -> float:
    """A child process's time at the nominal speed, given the reference
    child's time measured alongside."""
    return seconds * NOMINAL_CHILD_S / reference
