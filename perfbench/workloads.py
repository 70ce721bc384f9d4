"""Workload definitions and seeded input generation.

A workload fixes the window spec, the few-k configuration and the input
series; the seed fixes the values. Every layer (kernel, Spark batch,
Structured Streaming) sees the same generated arrays, so their windows can
be compared bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.fewk import FewKConfig
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon, search

PHIS = (0.5, 0.9, 0.99, 0.999)
SIG_DIGITS = 3  # Fig. 4 configuration


@dataclass(frozen=True)
class Workload:
    """One benchmark input configuration.

    ``series`` names the input streams (the streaming ``stream_id``s); the
    kernel and streaming layers run all of them, the Spark batch layer runs
    ``series[0]`` (``qlove_estimates`` has no ``stream_id`` dimension).
    """

    name: str
    why: str
    spec: WindowSpec
    fewk: FewKConfig
    series: tuple[str, ...]
    evals_per_series: int

    @property
    def series_len(self) -> int:
        """Events per series: one window plus one period per further evaluation."""
        return self.spec.size + (self.evals_per_series - 1) * self.spec.period

    def generate(self, seed: int) -> dict[str, np.ndarray]:
        """Input arrays per series; the same seed gives the same arrays."""
        seeds = np.random.SeedSequence(seed).generate_state(len(self.series))
        out = {}
        for sid, s in zip(self.series, seeds.tolist()):
            kind = sid.split("-")[0]
            if kind == "netmon":
                x = netmon(self.series_len, seed=s)
            elif kind == "search":
                x = search(self.series_len, seed=s)
            else:
                raise ValueError(f"unknown series kind {kind!r}")
            if sid.endswith("-burst"):
                x = inject_burst(
                    x, window_size=self.spec.size, period=self.spec.period, phi=0.999
                )
            out[sid] = x
        return out


_FEWK_SPEC = WindowSpec(size=131_072, period=4_096)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="netmon-plain",
            why=(
                "NetMon-sim 100K/1K without few-k: Level 1 and O(n) Level-2 "
                "bookkeeping in the kernel, the Level-2 SQL path in batch"
            ),
            spec=WindowSpec(size=100_000, period=1_000),
            fewk=FewKConfig(),
            series=("netmon-0",),
            evals_per_series=101,
        ),
        Workload(
            name="fewk-burst-4series",
            why=(
                "two bursty NetMon-sim and two Search-sim series, 128K/4K with "
                "Table-4 few-k budgets: tail caches, burst test, driver merge"
            ),
            spec=_FEWK_SPEC,
            fewk=FewKConfig.from_fraction(
                window_size=_FEWK_SPEC.size,
                period=_FEWK_SPEC.period,
                phis=[0.99, 0.999],
                sample_fraction=0.5,
                auto_topk=True,
            ),
            series=("netmon-0-burst", "netmon-1-burst", "search-0", "search-1"),
            evals_per_series=64,
        ),
    )
}


def smoke_variant(w: Workload) -> Workload:
    """The same workload at a tiny scale (n = 8 or 10 sub-windows), for the
    harness's own tests."""
    spec = WindowSpec(size=8 * 2_048, period=2_048) if w.fewk.budgets else WindowSpec(size=10_000, period=1_000)
    fewk = w.fewk
    if fewk.budgets:
        fewk = FewKConfig.from_fraction(
            window_size=spec.size,
            period=spec.period,
            phis=[b.phi for b in w.fewk.budgets],
            sample_fraction=0.5,
            auto_topk=True,
        )
    return replace(w, spec=spec, fewk=fewk, evals_per_series=12)
