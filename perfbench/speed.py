"""Host-speed probe: normalises timings for the speed of a shared host.

On a shared virtual machine the speed of one vCPU changes with the load of
other guests, by up to about 1.7x within seconds and between runs, so runs
of the same code differ by more than a change worth detecting. A timed
operation is therefore accompanied by runs of a fixed probe, and its time
is scaled by ``REF_PROBE_S`` over the probe's time: a host that is slow for
both the probe and the operation gives the same normalised time.

The probe is interpreter work and small NumPy ``unique`` calls, the
instruction mix of the kernel, and calls no program code: a change of the
program moves the normalised time, a change of the host does not. Callers
keep the raw times beside the normalised ones.
"""
from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Probe time on the reference machine (4-vCPU x86-64 guest, Python 3.11,
# NumPy 1.26) in its usual state; normalised times are times on a host
# where the probe takes this long.
REF_PROBE_S = 0.0012
_LOOP = 8_000
_SORTS = 3
_REPEATS = 5  # the median of several short runs ignores a single interruption
_DATA = np.random.default_rng(0).pareto(1.5, 4_096)


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for k in range(_SORTS):
        np.unique(np.round(_DATA * (k + 1), 3), return_counts=True)
    return time.perf_counter() - t0


def probe_s() -> float:
    """Seconds the fixed probe takes now: the median of ``_REPEATS`` runs."""
    return statistics.median(_probe_once() for _ in range(_REPEATS))


def scale(probe: float) -> float:
    """Factor from wall time to normalised time, given the probe time."""
    return REF_PROBE_S / probe


@dataclass(frozen=True)
class Timed:
    """One operation's wall time and the median of the probes taken around
    (and, if sampled, during) it."""

    wall_s: float
    probe_s: float

    @property
    def scale(self) -> float:
        return scale(self.probe_s)


def timed(fn: Callable[[], T], sample_every: float | None = None) -> tuple[T, Timed]:
    """Run ``fn`` between two probes; return its result and timing.

    With ``sample_every``, a background thread also probes at that interval
    while ``fn`` runs, for operations that wait on another process (the
    JVM) longer than the host keeps one speed; the operation's probe time
    is then the median of all probes.
    """
    probes = [probe_s()]
    stop = threading.Event()
    sampler = None
    if sample_every is not None:

        def sample() -> None:
            while not stop.wait(sample_every):
                probes.append(probe_s())

        sampler = threading.Thread(target=sample, name="speed-probe", daemon=True)
        sampler.start()
    t0 = time.perf_counter()
    try:
        out = fn()
        wall = time.perf_counter() - t0
    finally:
        stop.set()
        if sampler is not None:
            sampler.join()
    probes.append(probe_s())
    return out, Timed(wall, statistics.median(probes))
