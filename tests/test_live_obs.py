"""Tests for repro.obs.live — the windowed, memory-bounded primitives
behind the serve layer's live observability (rolling-window rings,
top-K exemplars, sparklines, Prometheus text rendering)."""

import threading

import numpy as np
import pytest

from repro.obs.live import (
    ExemplarRing,
    RollingWindow,
    flatten_stats,
    percentile_summary,
    prometheus_text,
    sparkline,
)


class TestPercentileSummary:
    def test_schema_in_milliseconds(self):
        seconds = [0.001 * (i + 1) for i in range(100)]
        out = percentile_summary(seconds)
        assert list(out) == ["count", "mean_ms", "p50_ms", "p95_ms",
                             "p99_ms", "max_ms"]
        ms = np.asarray(seconds) * 1e3
        assert out["count"] == 100
        assert out["mean_ms"] == pytest.approx(ms.mean())
        for q in (50, 95, 99):
            assert out[f"p{q}_ms"] == pytest.approx(np.percentile(ms, q))
        assert out["max_ms"] == pytest.approx(100.0)

    def test_empty_is_zeroed(self):
        out = percentile_summary([])
        assert out["count"] == 0
        assert all(v == 0.0 for v in out.values())


class TestRollingWindow:
    def test_empty_snapshot_is_zeroed_not_nan(self):
        w = RollingWindow(capacity=8)
        snap = w.snapshot(window_s=60.0, now=100.0)
        assert snap["count"] == 0
        assert snap["rate_per_s"] == 0.0
        for stat in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert snap[stat] == 0.0
            assert not np.isnan(snap[stat])

    def test_cumulative_exact_while_under_capacity(self):
        w = RollingWindow(capacity=128)
        values = [float(i) for i in range(100)]
        for i, v in enumerate(values):
            w.append(v, t=float(i))
        assert w.count() == 100
        assert w.retained() == 100
        snap = w.snapshot(window_s=1e9, now=100.0)
        # Samples are seconds; the summary reports milliseconds.
        assert snap["count"] == 100
        assert snap["mean_ms"] == pytest.approx(1e3 * np.mean(values))
        assert snap["p50_ms"] == pytest.approx(
            1e3 * np.percentile(values, 50))
        assert snap["max_ms"] == 99e3

    def test_wrap_around_keeps_newest_and_lifetime_count(self):
        w = RollingWindow(capacity=16)
        for i in range(50):
            w.append(float(i), t=float(i))
        # Ring retains only the newest `capacity` samples...
        assert w.retained() == 16
        vals = w.values(window_s=1e9, now=50.0)
        assert sorted(vals) == [float(i) for i in range(34, 50)]
        # ...but the lifetime count survives the wrap exactly.
        assert w.count() == 50
        assert w.snapshot(1e9, now=50.0)["total_count"] == 50

    def test_lifetime_max_survives_eviction(self):
        w = RollingWindow(capacity=4)
        w.append(1000.0, t=0.0)          # spike, then evicted
        for i in range(10):
            w.append(1.0, t=1.0 + i)
        assert 1000.0 not in w.values(1e9, now=20.0)
        assert w.total_max == 1000.0

    def test_window_filters_by_timestamp(self):
        w = RollingWindow(capacity=64)
        for t in (0.0, 10.0, 50.0, 58.0, 59.5):
            w.append(t, t=t)
        recent = w.values(window_s=10.0, now=60.0)
        assert sorted(recent) == [50.0, 58.0, 59.5]
        snap = w.snapshot(window_s=10.0, now=60.0)
        assert snap["count"] == 3
        assert snap["rate_per_s"] == pytest.approx(0.3)
        # Widening the window picks everything back up.
        assert w.snapshot(window_s=100.0, now=60.0)["count"] == 5

    def test_concurrent_appends_are_not_lost(self):
        w = RollingWindow(capacity=4096)

        def pump(base):
            for i in range(250):
                w.append(float(base + i))

        threads = [threading.Thread(target=pump, args=(j * 1000,))
                   for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert w.count() == 1000
        assert w.retained() == 1000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(capacity=0)


class TestExemplarRing:
    def test_keeps_top_k_by_score(self):
        ring = ExemplarRing(k=3)
        for score in (5.0, 1.0, 9.0, 3.0, 7.0, 2.0):
            ring.offer(score, {"id": score})
        snap = ring.snapshot()
        assert [e["score"] for e in snap] == [9.0, 7.0, 5.0]
        assert snap[0]["id"] == 9.0

    def test_offer_reports_admission_and_threshold(self):
        ring = ExemplarRing(k=2)
        assert ring.offer(1.0, {}) is True
        assert ring.offer(2.0, {}) is True
        assert ring.threshold() == 1.0      # min of the kept set
        assert ring.offer(0.5, {}) is False  # below the bar
        assert ring.offer(3.0, {}) is True
        assert ring.threshold() == 2.0

    def test_offered_counts_everything(self):
        ring = ExemplarRing(k=1)
        for s in (1.0, 2.0, 0.1):
            ring.offer(s, {})
        assert ring.offered == 3
        assert len(ring.snapshot()) == 1


class TestRendering:
    def test_sparkline_shape_and_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        flat = sparkline([5.0, 5.0, 5.0])
        assert len(flat) == 3 and len(set(flat)) == 1

    def test_flatten_stats_dotted_paths(self):
        flat = flatten_stats(
            {"a": {"b": 1, "c": {"d": 2.5}}, "ok": True,
             "skip": "strings are not metrics", "list": [1, 2]},
            prefix="serve")
        assert flat["serve.a.b"] == 1
        assert flat["serve.a.c.d"] == 2.5
        assert flat["serve.ok"] == 1          # bools become 0/1
        assert "serve.skip" not in flat
        assert "serve.list" not in flat

    def test_prometheus_text_format(self):
        text = prometheus_text({"serve.window.p50_ms": 1.5,
                                "health.ok": 1}, prefix="repro_")
        lines = text.splitlines()
        assert "# TYPE repro_serve_window_p50_ms gauge" in lines
        assert "repro_serve_window_p50_ms 1.5" in lines
        assert "repro_health_ok 1" in lines
        # Names must be Prometheus-legal: no dots, no leading digit.
        for line in lines:
            if not line.startswith("#"):
                name = line.split()[0]
                assert "." not in name and not name[0].isdigit()
