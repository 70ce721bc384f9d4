"""Structured Streaming tests: stateful QLOVE (sparklayer/streaming.py)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.sparklayer.streaming import make_handler, qlove_streaming
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon, search

PHIS = (0.5, 0.9, 0.99)
SPEC = WindowSpec(size=2_000, period=500)


def _write_stream_files(tmp_path, stream, files: int, stream_id: str = "s0"):
    """Chunk a stream into `files` parquet files (whole sub-windows each)."""
    per_file = len(stream) // files
    paths = []
    for i in range(files):
        chunk = stream[i * per_file : (i + 1) * per_file]
        pdf = pd.DataFrame(
            {
                "stream_id": stream_id,
                "seq": np.arange(i * per_file, i * per_file + len(chunk), dtype=np.int64),
                "value": chunk,
            }
        )
        p = tmp_path / f"part-{i:04d}.parquet"
        pdf.to_parquet(p)
        paths.append(p)
    return paths


def _run_streaming(spark, tmp_path, spec, phis, name, **kw):
    stream_df = (
        spark.readStream.schema("stream_id STRING, seq BIGINT, value DOUBLE")
        .option("maxFilesPerTrigger", 1)
        .parquet(str(tmp_path))
    )
    out = qlove_streaming(stream_df, spec, phis, **kw)
    query = (
        out.writeStream.format("memory")
        .queryName(name)
        .outputMode("append")
        .start()
    )
    try:
        query.processAllAvailable()
    finally:
        query.stop()
    return (
        spark.sql(f"SELECT * FROM {name}")
        .orderBy("w")
        .collect()
    )


class TestStreamingQlove:
    def test_matches_kernel(self, spark, tmp_path):
        stream = netmon(6_000, seed=0)
        _write_stream_files(tmp_path, stream, files=6)
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_plain")
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        assert len(rows) == len(kernel) == SPEC.n_evaluations(6_000)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_subwindow_split_across_batches(self, spark, tmp_path):
        # 8 files of 500 elements with period 500 — but shift so files do
        # NOT align with sub-window boundaries.
        stream = netmon(4_000, seed=1)
        per_file = 250  # half a sub-window per file
        for i in range(16):
            chunk = stream[i * per_file : (i + 1) * per_file]
            pd.DataFrame(
                {
                    "stream_id": "s0",
                    "seq": np.arange(i * per_file, (i + 1) * per_file, dtype=np.int64),
                    "value": chunk,
                }
            ).to_parquet(tmp_path / f"part-{i:04d}.parquet")
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_split")
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_matches_kernel(self, spark, tmp_path):
        stream = inject_burst(
            netmon(6_000, seed=2), window_size=SPEC.size, period=SPEC.period, phi=0.99
        )
        _write_stream_files(tmp_path, stream, files=6)
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size,
            period=SPEC.period,
            phis=[0.99],
            top_fraction=0.25,
            sample_fraction=0.5,
        )
        rows = _run_streaming(
            spark, tmp_path, SPEC, PHIS, "qlove_stream_fewk", fewk=cfg
        )
        kernel = QloveOperator(SPEC, PHIS, fewk=cfg).observe_chunk(stream)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_multiple_stream_ids_isolated(self, spark, tmp_path):
        s_a, s_b = netmon(2_000, seed=3), netmon(2_000, seed=4)
        pdf = pd.concat(
            [
                pd.DataFrame(
                    {"stream_id": "a", "seq": np.arange(2_000, dtype=np.int64), "value": s_a}
                ),
                pd.DataFrame(
                    {"stream_id": "b", "seq": np.arange(2_000, dtype=np.int64), "value": s_b}
                ),
            ]
        )
        pdf.to_parquet(tmp_path / "part-0000.parquet")
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_multi")
        by_stream = {}
        for r in rows:
            by_stream.setdefault(r.stream_id, []).append(r)
        for sid, stream in (("a", s_a), ("b", s_b)):
            kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
            assert len(by_stream[sid]) == len(kernel) == 1
            np.testing.assert_allclose(
                by_stream[sid][0].estimates, [kernel[0][p] for p in PHIS], rtol=1e-12
            )


class TestHandlerUnit:
    """Drive the state handler directly (no streaming harness) to cover the
    state-machine paths cheaply."""

    class _FakeState:
        def __init__(self):
            self._val = None

        @property
        def exists(self):
            return self._val is not None

        @property
        def get(self):
            return self._val

        def update(self, v):
            self._val = v

    def _feed(self, handler, state, stream, lo, hi):
        pdf = pd.DataFrame(
            {"seq": np.arange(lo, hi, dtype=np.int64), "value": stream[lo:hi]}
        )
        return list(handler(("s0",), iter([pdf]), state))

    def test_emits_once_per_window(self):
        stream = netmon(3_000, seed=5)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo in range(0, 3_000, 500):
            outs.extend(self._feed(handler, state, stream, lo, lo + 500))
        ws = [int(w) for o in outs for w in o["w"]]
        assert ws == [3, 4, 5]

    def test_out_of_order_subwindows(self):
        stream = netmon(2_500, seed=6)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        order = [(500, 1000), (0, 500), (1500, 2000), (1000, 1500), (2000, 2500)]
        outs = []
        for lo, hi in order:
            outs.extend(self._feed(handler, state, stream, lo, hi))
        ws = [int(w) for o in outs for w in o["w"]]
        assert sorted(ws) == [3, 4]
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        got = {int(w): est for o in outs for w, est in zip(o["w"], o["estimates"])}
        for i, res in enumerate(kernel):
            np.testing.assert_allclose(got[3 + i], [res[p] for p in PHIS], rtol=1e-12)

    def test_state_pruned(self):
        import pickle

        stream = netmon(10_000, seed=7)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        for lo in range(0, 10_000, 500):
            self._feed(handler, state, stream, lo, lo + 500)
        st = pickle.loads(bytes(state.get[0]))
        # bounded state: at most ~n summaries + 1 burst-neighbour retained
        assert len(st["summaries"]) <= SPEC.n_subwindows + 1
        assert len(st["inflight"]) == 0

    def _run(self, handler, state, stream, spans):
        got = {}
        for lo, hi in spans:
            for o in self._feed(handler, state, stream, lo, hi):
                got.update((int(w), est) for w, est in zip(o["w"], o["estimates"]))
        return got

    def _assert_matches_kernel(self, got, stream, **kw):
        kernel = QloveOperator(SPEC, PHIS, **kw).observe_chunk(stream)
        assert sorted(got) == list(range(3, 3 + len(kernel)))
        for i, res in enumerate(kernel):
            np.testing.assert_array_equal(got[3 + i], [res[p] for p in PHIS])

    def test_out_of_order_burst_waits_for_predecessor(self):
        # Window 4's first member (sub-window 1) is bursty against
        # sub-window 0, which arrives after sub-windows 1-4.
        stream = netmon(3_000, seed=5)
        sub = stream[500:1_000]
        sub[np.argsort(sub)[-40:]] *= 10
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.99], sample_fraction=0.5
        )
        handler = make_handler(SPEC, PHIS, fewk=cfg)
        order = [1, 2, 3, 4, 0, 5]
        got = self._run(
            handler, self._FakeState(), stream, [(s * 500, s * 500 + 500) for s in order]
        )
        self._assert_matches_kernel(got, stream, fewk=cfg)

    def test_late_events_dropped_not_held(self):
        import pickle

        stream = netmon(6_000, seed=8)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        spans = [(lo, lo + 500) for lo in range(0, 3_000, 500)]
        # replay half of pruned sub-window 0 and of summarized sub-window 5
        spans += [(0, 250), (2_500, 2_750)]
        spans += [(lo, lo + 500) for lo in range(3_000, 6_000, 500)]
        got = self._run(handler, state, stream, spans)
        self._assert_matches_kernel(got, stream)
        assert pickle.loads(bytes(state.get[0]))["inflight"] == {}

    def test_redelivered_subwindow_keeps_first_summary(self):
        stream = netmon(6_000, seed=9)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        self._run(handler, state, stream, [(lo, lo + 500) for lo in range(0, 3_000, 500)])
        replay = stream.copy()
        replay[1_500:2_000] *= 10
        self._run(handler, state, replay, [(1_500, 2_000)])
        got = self._run(handler, state, stream, [(lo, lo + 500) for lo in range(3_000, 6_000, 500)])
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        assert sorted(got) == list(range(6, 12))
        for w in got:
            np.testing.assert_array_equal(got[w], [kernel[w - 3][p] for p in PHIS])

    def test_overfull_subwindow_raises(self):
        stream = netmon(1_000, seed=10)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        self._feed(handler, state, stream, 0, 250)
        with pytest.raises(RuntimeError, match="sub-window 0 received 750 events"):
            self._feed(handler, state, stream, 0, 500)


@st.composite
def _handler_cases(draw):
    """A window spec, phi set, few-k budget, integer-valued stream (one
    sub-window optionally scaled 10x, a burst) and its delivery: whole
    sub-windows in a drawn order, cut into micro-batches at drawn points."""
    n = draw(st.integers(1, 4))
    period = draw(st.integers(50, 400))
    n_subs = n + draw(st.integers(1, 3))
    spec = WindowSpec(size=n * period, period=period)
    phis = tuple(sorted(draw(st.sets(st.sampled_from([0.5, 0.9, 0.99]), min_size=1))))
    fewk = FewKConfig.from_fraction(
        window_size=spec.size,
        period=period,
        phis=draw(st.lists(st.sampled_from(phis), unique=True, min_size=1)),
        top_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        sample_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    gen = draw(st.sampled_from([netmon, search]))
    stream = gen(n_subs * period, seed=draw(st.integers(0, 2**16)))
    # 0: no burst (sub-window 0 has no predecessor to burst against)
    burst = draw(st.integers(0, n_subs - 1))
    if burst:
        stream[burst * period : (burst + 1) * period] *= 10
    order = draw(st.permutations(range(n_subs)))
    delivery = np.concatenate([np.arange(s * period, (s + 1) * period) for s in order])
    # cuts at sub-window boundaries make single sub-windows arrive alone
    boundary = st.integers(1, n_subs - 1).map(lambda k: k * period)
    cuts = draw(st.sets(boundary | st.integers(1, len(delivery) - 1), max_size=2 * n_subs))
    return spec, phis, fewk, stream, np.split(delivery, sorted(cuts))


class TestHandlerMatchesKernel:
    """Cross-layer property: the streaming handler, driven directly under
    any sub-window delivery order and micro-batch split, emits exactly the
    kernel operator's estimates. Integer-valued streams keep both Level-2
    means (running sums vs. a per-window mean) exact."""

    @given(_handler_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_kernel(self, case):
        spec, phis, fewk, stream, batches = case
        handler = make_handler(spec, phis, fewk=fewk)
        state = TestHandlerUnit._FakeState()
        got = {}
        for seq in batches:
            pdf = pd.DataFrame({"seq": seq, "value": stream[seq]})
            for o in handler(("s0",), iter([pdf]), state):
                got.update((int(w), est) for w, est in zip(o["w"], o["estimates"]))
        kernel = QloveOperator(spec, phis, fewk=fewk).observe_chunk(stream)
        first_w = spec.n_subwindows - 1
        assert sorted(got) == list(range(first_w, first_w + len(kernel)))
        for i, res in enumerate(kernel):
            np.testing.assert_array_equal(got[first_w + i], [res[p] for p in phis])
