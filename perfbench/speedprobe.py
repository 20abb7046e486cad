"""How fast the host runs this process, moment by moment.

Each vCPU of the machine in README.md switches between two speeds about
1.7x apart every few seconds.  A fixed block of pure-Python work timed in
the process being measured follows those switches closely (correlation 0.97
with the census time), while the same block timed in another process does
not.  So the benchmark times the block inside each measured process and
reports elapsed times at one reference speed.

This module imports only `time` (loaded at interpreter start), so that the
import-time probe can use it without preloading anything matchcov imports.
"""

import time

PERIOD_S = 0.05
REPEATS = 5
# Seconds one sample lasts at the reference speed.  A fixed scale, chosen
# so that rescaled times read close to elapsed seconds on that machine.
NOMINAL_S = 0.00025


def _block():
    d = {}
    s = 0
    for i in range(400):
        d[i & 63] = s
        s += (i * i) % 7
    return s


class SpeedProbe:
    """Samples on entry and exit, and every PERIOD_S in between."""

    def __init__(self):
        self.samples = []        # seconds per REPEATS blocks
        self._signal = None

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            _block()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        import signal            # here, not above: see the module docstring
        self._signal = signal
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._signal.setitimer(self._signal.ITIMER_REAL, 0)
        self._signal.signal(self._signal.SIGALRM, self._signal.SIG_DFL)
        self.tick()


def at_reference_speed(elapsed, probe_in, samples):
    """`elapsed` seconds, less `probe_in` spent in the probe, at NOMINAL_S.

    Samples are taken at even intervals of wall time, so the mean of
    NOMINAL_S / sample is the mean speed over the interval.
    """
    return (elapsed - probe_in) * sum(NOMINAL_S / s for s in samples) / len(samples)
