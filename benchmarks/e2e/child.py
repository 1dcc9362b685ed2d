"""One measured repetition of one workload, in a fresh interpreter.

Started by ``run.py``, never by hand. Prints one JSON object as its
last line of standard output.

The shared hosts this benchmark was built on have slow phases, lasting
from seconds to minutes, in which the same code takes up to twice as
long; raw wall times of one workload spread by 20-25% between runs.
So from its first moment the child samples the host's speed: every
``PERIOD_S`` of wall time a ``SIGALRM`` handler times a fixed, pure
Python reference computation that shares no code with the program.
Each timing comes with a host factor, ``REFERENCE_S`` over the mean
sample taken while it ran, and ``run.py`` multiplies the time by it:
times are reported as they would read on a host where the reference
takes ``REFERENCE_S``. A change to the program moves the measured time
but not the reference.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

#: Sampling period of the probe, in seconds of wall time.
PERIOD_S = 0.02
#: The reference's mean time on a 2-vCPU x86-64 cloud VM with
#: Python 3.11 in a quiet phase; the unit the timings are scaled to.
REFERENCE_S = 2.9e-4


def _reference() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) ^ i
    return acc


class HostSpeed:
    """Times :func:`_reference` every ``PERIOD_S`` until stopped.

    ``mark()`` before and after a timed stretch delimits the samples
    taken during it; ``factor(start, end)`` is the host factor there.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        _reference()
        self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, end: int) -> float:
        window = self.samples[start:end]
        if not window:
            raise RuntimeError("the host-speed probe took no samples in a window")
        return REFERENCE_S * len(window) / sum(window)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument(
        "--launched", type=float, required=True,
        help="time.monotonic() of the parent just before it started us",
    )
    args = parser.parse_args(argv)

    host_speed = HostSpeed()
    host_speed.start()
    # Imported only now: the import of the program is most of set-up,
    # and the probe has to see it.
    import measure

    out = measure.repetition(
        args.workload, args.mode, args.seed, args.smoke, args.cache_dir,
        host_speed,
    )
    out["setup_s"] = out.pop("spec_built") - args.launched
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
