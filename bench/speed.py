"""Host speed samples, taken on the benchmark's own thread during each op.

On a shared 2-vCPU host the same fixed loop runs up to twice as slowly from
one second to the next (measured with ``time.perf_counter`` and
``time.thread_time`` alike, so it is not time stolen from the process but a
slower CPU), and the two vCPUs drift independently.  Op times alone then
spread by about 25% between runs.  The probe below runs a fixed reference
chunk every ``INTERVAL_S`` seconds of an op, from a ``SIGALRM`` handler on
the op's own thread, and records how long each chunk took.  An op's time
divided by the mean chunk time during that op is its cost in chunks; it
follows the work the op does rather than the host's speed at the time.

The chunk is benchmark code: no change to the package moves it.  Its own
time is subtracted from the op's wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

INTERVAL_S = 0.2
#: Chunks timed per setup interpreter, right after its import.
CHUNKS_PER_SETUP = 30
#: The chunk's time on the fast state of the 2-vCPU host the benchmark was
#: written on; ``setup_s`` is reported at this speed.
REFERENCE_CHUNK_S = 0.003

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_EYE = np.eye(2)
_UNIFORM16 = np.full(16, 1 / 16)


def reference_chunk() -> None:
    """A fixed mix of what the simulator's inner loops do: dict churn on tuple
    keys, 2x2 complex matrix checks and a weighted draw (3 to 6 ms)."""
    terms: dict = {}
    for i in range(800):
        key = (i & 127, i % 5, "ge"[i & 1])
        terms[key] = terms.get(key, 0j) + complex(i, 1) * 0.5
    for _ in range(80):
        np.allclose(_PAULI_X.conj().T @ _PAULI_X, _EYE, atol=1e-12, rtol=0)
    np.random.default_rng(0).choice(16, size=2000, p=_UNIFORM16)


def timed_chunk() -> float:
    """CPU seconds of one chunk on this thread.  Waiting for the interpreter
    lock while sampler workers run does not count, so the reading follows the
    CPU's speed and not how the program shares the lock."""
    start = thread_time()
    reference_chunk()
    return thread_time() - start


def host_chunk_s() -> float:
    """Mean chunk time right now, after two chunks that warm it up."""
    timed_chunk()
    timed_chunk()
    return statistics.fmean(timed_chunk() for _ in range(CHUNKS_PER_SETUP))


class SpeedProbe:
    """Context manager sampling chunk times while the body runs.

    ``samples`` holds one chunk time taken on entry plus one per timer tick;
    ``probe_s`` is the wall time the ticks took from the body's thread.  Must be
    used from the main thread, where Python runs signal handlers.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(timed_chunk())
        self.probe_s += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(timed_chunk())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def chunk_s(self) -> float:
        """Mean chunk time over the ticks (the entry sample when there were
        none).  Ticks come at equal steps of wall time, so their mean follows
        the host's speed averaged over the op; a median would follow only
        whichever of the host's fast and slow states lasted longer."""
        ticks = self.samples[1:] or self.samples
        return statistics.fmean(ticks)
