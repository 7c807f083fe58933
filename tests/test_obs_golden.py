"""Golden observability shape: what each CLI run records never drifts.

Refactoring the span, percentile and run-session plumbing must leave
every artifact, telemetry timeline and server stats payload with the
same *shape*.  This test runs the observability-heavy commands on a
small suite matrix and a tiny ``serve-bench`` and pins, per run,

* the sorted span names in the artifact's ``spans``;
* per process role, the set of (span name, attr keys) in the collected
  telemetry timeline;
* the event kinds in the run's JSONL streams (``attr`` excluded: the
  numeric attribution views now travel back in worker results);
* the key sets of the artifact and of its ``attribution``,
  ``attribution.numeric_processes``, ``telemetry`` and latency sections;

plus the key trees of ``SolveServer.stats()`` and ``health()``.  Only
names and keys are compared, never counts or timings, since how many
``serve.batch`` spans a run emits depends on thread timing.

Regenerate the golden file only when a change is *meant* to alter what
a run records::

    PYTHONPATH=src python tests/test_obs_golden.py --write
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import telemetry

GOLDEN = Path(__file__).with_name("obs_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

MATRIX = "suite:bmwcra_1@0.3"

# run id -> (argv without --metrics/--telemetry-dir, records telemetry)
RUNS = {
    "solve_workers": (["solve", MATRIX, "--workers", "2",
                       "--repeat", "2"], True),
    "solve_procs": (["solve", MATRIX, "--procs", "2", "--repeat", "2"],
                    True),
    "simulate": (["simulate", MATRIX], False),
    "verify": (["verify", "--cases", "6", "--jobs", "2"], True),
    "serve_bench": (["serve-bench", "--requests", "24", "--clients", "4",
                     "--max-n", "48", "--no-baseline"], True),
}


def _union_keys(dicts) -> list[str]:
    keys: set[str] = set()
    for d in dicts:
        keys.update(d)
    return sorted(keys)


def _latency_shape(section: dict) -> dict:
    return {"phases": sorted(section),
            "stats": _union_keys(section.values())}


def _telemetry_shape(tel_dir: Path) -> dict:
    timeline = telemetry.collect(tel_dir)
    by_role: dict[str, set] = {}
    for stream in timeline.streams:
        pairs = by_role.setdefault(stream.role, set())
        for s in stream.spans:
            pairs.add((s["name"], ",".join(sorted(s.get("attrs") or {}))))
    kinds: set[str] = set()
    for path in tel_dir.glob(f"{timeline.run_id}.*.jsonl"):
        for line in path.read_text().splitlines():
            if line.strip():
                kinds.add(json.loads(line)["t"])
    kinds.discard("attr")
    return {
        "spans_by_role": {role: sorted(map(list, pairs))
                          for role, pairs in sorted(by_role.items())},
        "event_kinds": sorted(kinds),
    }


def run_shape(run_id: str, workdir: Path) -> dict:
    """Run one CLI command and describe what it recorded."""
    argv, with_telemetry = RUNS[run_id]
    artifact_path = workdir / "run.json"
    tel_dir = workdir / "telemetry"
    argv = [*argv, "--metrics", str(artifact_path)]
    if with_telemetry:
        argv += ["--telemetry-dir", str(tel_dir)]
    if argv[0] == "verify":
        argv += ["--out", str(workdir / "repros")]
    # A fresh interpreter per run, as from the shell: no analysis cache
    # or last-factorization view leaks in from earlier runs or tests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for key in (telemetry.ENV_DIR, telemetry.ENV_RUN, telemetry.ENV_PARENT):
        env.pop(key, None)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(artifact_path.read_text())
    attribution = data.get("attribution") or {}
    shape = {
        "artifact_keys": sorted(data),
        "span_names": sorted({s["name"] for s in data["spans"]}),
        "attribution_keys": sorted(attribution),
    }
    processes = attribution.get("numeric_processes")
    if processes is not None:
        shape["numeric_processes_keys"] = sorted(processes)
        shape["numeric_process_view_keys"] = _union_keys(
            processes["processes"])
    if data.get("telemetry") is not None:
        shape["telemetry_keys"] = sorted(data["telemetry"])
        shape["telemetry_latency"] = _latency_shape(
            data["telemetry"]["latency_ms"])
    if "latency_ms" in data["report"]:
        shape["report_latency_keys"] = sorted(data["report"]["latency_ms"])
    if with_telemetry:
        shape.update(_telemetry_shape(tel_dir))
    return shape


def key_tree(obj):
    """Nested key structure of a JSON-like value (lists merge their
    elements' trees; scalars are leaves)."""
    if isinstance(obj, dict):
        return {str(k): key_tree(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        merged: dict = {}
        for item in obj:
            tree = key_tree(item)
            if isinstance(tree, dict):
                merged.update(tree)
        return [merged] if merged else []
    return None


def _collapse_patterns(tree: dict) -> dict:
    # Per-pattern maps are keyed by a pattern digest; pin one entry.
    workers = tree.get("workers") or {}
    merged: dict = {}
    for sub in workers.values():
        merged.update(sub)
    tree["workers"] = {"<pattern>": merged}
    return tree


def server_shape() -> dict:
    """Key trees of a small server's ``stats()`` and ``health()``."""
    from repro.serve.server import ServeConfig, SolveServer
    from repro.verify.generators import build_case

    server = SolveServer(ServeConfig(coalesce_window_s=0.001,
                                     max_batch=4))
    try:
        rng = np.random.default_rng(0)
        for seed in (0, 1):
            matrix = build_case("spd_random", seed, max_n=32).matrix
            pattern = server.factor(matrix)["pattern"]
            futures = [server.submit_solve(
                pattern, rng.standard_normal(matrix.n_rows))
                for _ in range(6)]
            for f in futures:
                f.result(timeout=30)
            server.refactorize(pattern, matrix.data * 2.0)
        stats = _collapse_patterns(key_tree(server.stats()))
        health = _collapse_patterns(key_tree(server.health()))
    finally:
        server.shutdown()
    return {"stats": stats, "health": health}


def _golden() -> dict:
    if not GOLDEN.exists():
        pytest.fail(f"missing {GOLDEN.name}; run this file with --write")
    return json.loads(GOLDEN.read_text())


def _normalized(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_run_records_same_shape(run_id, tmp_path):
    expected = _golden()["runs"][run_id]
    assert _normalized(run_shape(run_id, tmp_path)) == expected


def test_server_stats_and_health_key_trees():
    assert _normalized(server_shape()) == _golden()["server"]


def _write() -> None:
    import tempfile

    runs = {}
    for run_id in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            runs[run_id] = run_shape(run_id, Path(tmp))
    golden = {"runs": runs, "server": server_shape()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        _write()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
