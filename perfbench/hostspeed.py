"""Host-speed reference: rescale measured times to one fixed host speed.

The host this benchmark runs on changes speed by tens of percent within
seconds and minutes, and CPU time follows wall time, so raw times of the same
work spread too widely to compare two commits. The benchmark therefore times
a fixed reference kernel next to the work, before and after each timed item
and, for long items, every SAMPLE_PERIOD_S while it runs (from a SIGALRM
handler: no thread, no second process). A time is reported rescaled to the
host speed at which the kernel takes REFERENCE_S:

    rescaled = seconds * REFERENCE_S / mean(reference samples around and during it)

The kernel never calls hopflab, so it runs the same code on every commit.
Time spent in the sampler is subtracted from the item's time.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.012      # the kernel's time at the nominal host speed
SAMPLE_PERIOD_S = 0.25   # sampling period during an item

_SIG = np.array([1.0, 1.0, 1.0])
_Z = np.array([1 + 1j, 0.5, 0.2j])
_W = np.array([0.3, 1j, 2.0])
_M = np.tile(np.eye(3, dtype=complex) * 0.5, (300, 1, 1))


def reference_seconds():
    """Time of a fixed kernel shaped like hopflab's hot path.

    Length-3 complex Hermitian products through NumPy (Python call overhead,
    like ``SpaceForm.herm``) and batched 3x3 complex products (like the group
    kernels).
    """
    t0 = time.perf_counter()
    for _ in range(1500):
        np.real(np.sum(_SIG * np.conj(_Z) * _W, axis=-1))
    for _ in range(30):
        np.einsum("nij,njk->nik", _M, _M)
    return time.perf_counter() - t0


def rescale(seconds, refs):
    """``seconds`` at the nominal host speed, given reference samples taken around it."""
    return seconds * REFERENCE_S / statistics.mean(refs)


class HostSpeed:
    """Times work and rescales it by reference samples taken around it.

    With ``periodic`` the reference is also sampled every SAMPLE_PERIOD_S
    during the work. The traced run uses ``periodic=False``, so that sampler
    time never lands in a span.
    """

    def __init__(self, periodic):
        self.periodic = periodic
        self._samples = []
        self._stolen = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(reference_seconds())
        self._stolen += time.perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``; returns (seconds, rescaled seconds, reference samples)."""
        refs = [reference_seconds()]
        self._samples = []
        self._stolen = 0.0
        if self.periodic:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            seconds = time.perf_counter() - t0
            if self.periodic:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds -= self._stolen
        refs += self._samples + [reference_seconds()]
        return seconds, rescale(seconds, refs), refs
