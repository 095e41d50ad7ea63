"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload: str) -> None:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--tiny")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [n for n, _ in workloads.END_TO_END] == list(result["metrics"])
    for name, unit in workloads.END_TO_END:
        entry = result["metrics"][name]
        assert entry["unit"] == unit and entry["value"] > 0, (name, entry)
    # The tail is a fixed percentile of a fixed count of reads.
    tail = next(line for line in lines if " query_tail_ms " in line)
    assert {"graph-1m": "p75 of the first 60 reads", "points-8k": "p75 of the first 40 reads",
            "dynamic-100k": "p50 of the first 20 reads"}[workload] in tail


def test_tail_percentile_is_fixed_by_the_read_count() -> None:
    # The full-size counts: 3 x 600, 8 x 200 and 50 x 20 reads.
    assert [workloads.tail_percentile(n) for n in (1800, 1600, 1000)] == [99.0] * 3
    assert workloads.tail_percentile(2000) == 99.5
    assert workloads.tail_percentile(5) == 50.0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_layers_add_up(workload: str) -> None:
    code, lines = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                        "--trace", "1", "--tiny")
    assert code == 0, lines
    m = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert list(m) == list(spans.PER_LAYER)
    close = lambda a, b: math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)  # noqa: E731
    # Self time plus child spans equals the parent span.
    if workload == "graph-1m":
        assert close(m["graph_linkage.wall_s"],
                     m["graph_linkage.self_s"] + m["mst.wall_s"] + m["sld.wall_s"])
    if workload == "points-8k":
        assert close(m["single_linkage.wall_s"], m["single_linkage.self_s"]
                     + m["knn.wall_s"] + m["mst.wall_s"] + m["sld.wall_s"])
    assert close(m["snapshot.wall_s"], m["snapshot.self_s"] + m["snapshot.leaf_parents_s"]
                 + m["snapshot.depths_s"] + m["snapshot.lifting_s"]
                 + m["snapshot.validate_s"])
    # Every cut request of the traced units is a hit or a miss.
    per_unit = {"graph-1m": 60, "points-8k": 40, "dynamic-100k": workloads.DYNAMIC_READS}
    counts = gen._exact_counts(np.array([s for _, s in gen.MIX]), per_unit[workload])
    cuts = m["query.cut_cache_hits"] + m["query.cut_cache_misses"]
    assert cuts == counts[2] * m["trace.units"]
    assert m["query.requests"] == per_unit[workload] * m["trace.units"]
    assert m["trace.units"] >= 1
    if workload == "dynamic-100k":
        assert m["dynamic.batches"] == m["trace.units"] and m["dynamic.rolled_back"] == 0
        assert 0 < m["dynamic.generation_bumps"] <= m["dynamic.batches"]
        assert m["dynamic.ops"] == 8 * m["dynamic.batches"]
        assert m["mst.calls"] == 0 and m["dynamic.from_graph_s"] > 0


def test_cut_cache_hits_seen_from_outside() -> None:
    mods = workloads.load_modules()
    n, edges, weights = gen.random_graph(400, np.random.default_rng(0))
    dend = mods.graph_linkage.graph_single_linkage(n, edges, weights).dendrogram
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        tracer.unit = 0
        cached = mods.query.QueryEngine.from_dendrogram(dend)
        uncached = mods.query.QueryEngine.from_dendrogram(dend, cut_cache_size=0)
        for engine in (cached, uncached):
            engine.cut_at(0.1)
            engine.cut_at(0.1)
            engine.cut_k(5)
            engine.cut_k(5)
            engine.cut_at(0.2)
        tracer.unit = None
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["query.cut_cache_hits"] == 2 and m["query.cut_cache_misses"] == 8
    assert m["snapshot.calls"] == 2
    assert not hasattr(mods.query.QueryEngine.cut_at, "__wrapped__")


def test_self_time_per_span() -> None:
    mods = workloads.load_modules()
    n, edges, weights = gen.random_graph(2000, np.random.default_rng(1))
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        tracer.unit = 0
        mods.graph_linkage.graph_single_linkage(n, edges, weights)
        tracer.unit = None
    finally:
        tracer.uninstall()
    top = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in top] == ["graph_linkage"]
    children = [s for s in tracer.spans if s.parent == 0]
    assert sorted(s.name for s in children) == ["mst", "sld"]
    assert math.isclose(top[0].self_wall + sum(s.wall for s in children), top[0].wall)


def test_generators_are_seeded_and_legal() -> None:
    a = gen.random_graph(1000, np.random.default_rng(5))
    b = gen.random_graph(1000, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
    n, edges, _ = gen.simple_graph(2000, np.random.default_rng(6))
    stream = gen.update_stream(n, edges, 20, 4, 4, np.random.default_rng(7))
    present = set(zip(edges.min(axis=1).tolist(), edges.max(axis=1).tolist()))
    for ins, dels in stream.batches:
        fresh = {(u, v) for u, v, _ in ins}
        assert len(fresh) == 4 and not fresh & present
        assert len(set(dels)) == 4 and set(dels) <= present
        present = (present | fresh) - set(dels)


def test_bare_directory_fails_without_result(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = bench("--workload", "graph-1m", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
