"""Host-speed sampling, so timings compare across a noisy shared host.

On a host shared with other machines the speed of one core drifts by
tens of percent over tens of seconds, which swamps the differences a
benchmark is meant to show.  :class:`HostSpeed` samples that speed all
through a run: a timer signal interrupts the main thread every
``INTERVAL`` seconds and times a fixed integer loop (``PROBE_LOOPS``
iterations, about half a millisecond).  The loop is the benchmark's own
code, so no change to the program moves it.

:meth:`HostSpeed.seconds` turns an interval measured with
``time.perf_counter`` into seconds at the reference speed: the
interval, less the time the probes themselves took inside it, scaled by
``NOMINAL_PROBE_S`` over the mean probe time measured in it.  When a
host runs at reference speed the two agree; when a neighbour slows the
host, the probes slow with it and the scaled figure stays put.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_clock = time.perf_counter

#: Seconds between probes (the probe costs about 1.5% of the run).
INTERVAL = 0.04
PROBE_LOOPS = 8000
#: Probe time that defines the reference speed.
NOMINAL_PROBE_S = 0.0006
#: Probes averaged into each local speed estimate.
WINDOW = 8


def _probe() -> None:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i


class HostSpeed:
    """Samples the host's speed while started; main thread only."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._smooth: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = _clock()
        _probe()
        self.durations.append(_clock() - started)
        self.starts.append(started)

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "HostSpeed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Mean probe time over ``[t0, t1]`` (the nominal one if none ran)."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.starts, t1)
        if first == last:
            return NOMINAL_PROBE_S
        return statistics.fmean(self.durations[first:last])

    def _smoothed(self) -> list[float]:
        """Each probe's time averaged with its ``WINDOW`` neighbours."""
        if len(self._smooth) != len(self.durations):
            prefix = [0.0]
            for duration in self.durations:
                prefix.append(prefix[-1] + duration)
            half, count = WINDOW // 2, len(self.durations)
            self._smooth = [
                (prefix[min(count, i + half + 1)] - prefix[max(0, i - half)])
                / (min(count, i + half + 1) - max(0, i - half))
                for i in range(count)
            ]
        return self._smooth

    def seconds(self, t0: float, t1: float) -> float:
        """``[t0, t1]`` in seconds at the reference speed.

        The interval is cut at every probe; each piece loses the probe
        that starts it and is scaled by the speed measured around it.
        """
        if not self.starts:
            return t1 - t0
        smooth = self._smoothed()
        first = bisect.bisect_right(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        cuts = [t0, *self.starts[first:last], t1]
        total = 0.0
        for index, (a, b) in enumerate(zip(cuts, cuts[1:])):
            probe = max(first - 1 + index, 0)
            own = min(self.durations[probe], b - a) if index else 0.0
            total += (b - a - own) * NOMINAL_PROBE_S / smooth[probe]
        return total
