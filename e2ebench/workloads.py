"""The three workloads: inputs, timed units, output checks and metrics.

A *unit* is what one end-to-end sample times: a repetition of the whole
pipeline plus its read phase (graph-1m, points-8k) or one update batch
with its republish and reads (dynamic-100k).  Units run until the
``seconds`` budget is spent; a first warm-up unit is discarded.  Inputs,
streams and read mixes are built before the first unit; output checks
run after the last one.  ``gc.collect()`` runs before each timed phase
and GC stays enabled.
"""

from __future__ import annotations

import gc
import importlib
import os
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

import gen
from probe import BURST, PROBE_REFERENCE_S, burst_factor, speed_probe
from spans import Tracer, status_kib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics, in print order, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("cluster_s", "s"),
    ("time_to_query_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
#: Tail percentiles tried from the top.  A workload's tail is taken over
#: its first ``tail_n`` timed reads, a count every run reaches, at the
#: first percentile that leaves at least 10 of them beyond it; so each
#: workload always reports the same percentile.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Set-up repetitions: import timings (after one discarded warm import)
#: and engine constructions.
IMPORT_REPEATS = 7
BUILD_REPEATS = 3

MODULES = (
    "repro.cluster.knn",
    "repro.cluster.graph_linkage",
    "repro.cluster.single_linkage",
    "repro.trees.mst",
    "repro.core.api",
    "repro.dendrogram.snapshot",
    "repro.dendrogram.query",
    "repro.dendrogram.linkage",
    "repro.core.dynamic",
)


def load_modules() -> types.SimpleNamespace:
    mods = {name.rsplit(".", 1)[1]: importlib.import_module(name) for name in MODULES}
    return types.SimpleNamespace(**mods)


@dataclass
class Run:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit, note); the note holds the sample count.
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)

    def op(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one operation, counting it; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, never fatal
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {name}")


def timed_imports(modules: tuple[str, ...]) -> tuple[list[float], list[float]]:
    """Time ``import`` of the workload's modules in fresh interpreters.

    Returns the import times and, for each, the host-speed factor of the
    probe bursts that ran in the same interpreter right before and right
    after the import.  The first import warms the file cache and is
    dropped."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import probe; "
        "f = probe.burst_factor(); t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; t = time.perf_counter() - t; print(t, (f + probe.burst_factor()) / 2)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, factors = [], []
    for i in range(IMPORT_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            t, f = proc.stdout.strip().splitlines()[-1].split()
            times.append(float(t))
            factors.append(float(f))
    return times, factors


def scaled_median(times: list[float], factors: list[float]) -> float:
    """Median of the timings, each divided by its own host-speed factor."""
    return statistics.median(t / f for t, f in zip(times, factors))


class Reads:
    """Closed-loop, one-client read phases and their latencies."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.latencies: list[float] = []
        self.probes: list[float] = []

    def serve(self, engine: Any, requests: list[tuple[str, Any]], record: bool,
              answers: dict | None = None) -> None:
        lat = []
        probes = []
        for kind, arg in requests:
            t0 = time.perf_counter()
            if kind == "merge_heights":
                out = self.run.op(engine.merge_heights, arg)
            elif kind == "cluster_of":
                out = self.run.op(engine.cluster_of, *arg)
            elif arg[0] == "t":
                out = self.run.op(engine.cut_at, arg[1])
            else:
                out = self.run.op(engine.cut_k, arg[1])
            lat.append(time.perf_counter() - t0)
            probes.append(speed_probe())
            if answers is not None and kind == "cut":
                answers.setdefault(arg, out)
        if record:
            self.latencies.extend(lat)
            self.probes.extend(probes)

    def metrics(self, run: Run, tail_n: int) -> None:
        """p50, tail and rate of the read requests at reference host speed:
        each latency is divided by its own host-speed factor, the probe
        that ran right after it over :data:`PROBE_REFERENCE_S`.  The tail
        is taken over the first ``tail_n`` reads (see :data:`TAIL_LADDER`)."""
        raw = np.asarray(self.latencies) * 1e3
        lat = raw / (np.asarray(self.probes) / PROBE_REFERENCE_S)
        n = lat.size
        run.metrics["query_p50_ms"] = (
            float(np.median(lat)), "ms", f"n={n}; raw {np.median(raw):.6g} ms")
        p = tail_percentile(tail_n)
        head, raw_head = lat[:tail_n], raw[:tail_n]
        run.metrics["query_tail_ms"] = (
            float(np.percentile(head, p)), "ms",
            f"p{p:g} of the first {head.size} reads; raw {np.percentile(raw_head, p):.6g} ms",
        )
        run.metrics["queries_per_s"] = (
            n / (lat.sum() / 1e3), "1/s", f"n={n}; raw {n / (raw.sum() / 1e3):.6g} 1/s")


def tail_percentile(tail_n: int) -> float:
    """The highest ladder percentile with at least 10 of ``tail_n`` beyond it."""
    for p in TAIL_LADDER:
        if tail_n * (100 - p) >= 1000 - 1e-6:
            return p
    return TAIL_LADDER[-1]


class Units:
    """Runs timed units until the budget is spent; alternates tracing.

    ``body`` calls :meth:`probe` before, between and after its timed
    builds, outside their timings.  A unit's host-speed factor is the mean
    of those probe bursts, so it samples the host right around the builds.

    With a tracer, odd-numbered units (the first timed one, the third, ...)
    are traced and even ones are not, so the tracing overhead is a paired
    difference of unit times.
    """

    def __init__(self, seconds: float, tracer: Tracer | None, mods: Any,
                 min_units: int, burst: int) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.mods = mods
        self.min_units = min_units
        self.burst = burst
        self.cluster: list[float] = []
        self.ttq: list[float] = []
        self.factors: list[float] = []
        self.unit_factors: list[float] = []
        self.walls: dict[bool, list[float]] = {True: [], False: []}

    def collect(self) -> None:
        """``gc.collect()`` outside any span and outside the GC tally;
        called before each timed phase."""
        unit = self.tracer.unit if self.tracer else None
        if self.tracer:
            self.tracer.unit = None
        gc.collect()
        if self.tracer:
            self.tracer.unit = unit

    def probe(self) -> None:
        """A burst of host-speed probes for the current unit's factor."""
        self.unit_factors.append(burst_factor(self.burst))

    def run(self, limit: int, body: Callable[[int, bool], tuple[float, float] | None]) -> int:
        """Call ``body(i, timed)`` for a warm-up unit ``i = 0``, then for timed
        units while fewer than ``min_units`` have run or the next one is
        expected to end within ``seconds`` (at most ``limit - 1``).
        ``body`` releases the previous unit's results and calls
        :meth:`collect` itself, and returns ``(cluster_s,
        time_to_query_s)``, or ``None`` on failure.  Returns the number of
        timed units run."""
        started = 0.0
        spent: list[float] = []
        for i in range(limit):
            begin = time.perf_counter()
            if (i > self.min_units
                    and begin - started + statistics.median(spent) > self.seconds):
                return i - 1
            self.unit_factors = []
            traced = self.tracer is not None and i % 2 == 1
            if traced:
                self.tracer.install(self.mods)
                self.tracer.unit = i
            t0 = time.perf_counter()
            sample = body(i, i > 0)
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.unit = None
                self.tracer.uninstall()
            if i == 0:
                started = time.perf_counter()
                continue
            spent.append(time.perf_counter() - begin)
            self.walls[traced].append(wall)
            if sample is not None:
                self.cluster.append(sample[0])
                self.ttq.append(sample[1])
                self.factors.append(statistics.fmean(self.unit_factors))
        return limit - 1

    def metrics(self, run: Run) -> None:
        """Medians of the unit timings, each divided by its unit's factor."""
        n = len(self.cluster)
        if not n:
            run.check("at least one timed unit completed", False)
            return
        for name, times in (("cluster_s", self.cluster), ("time_to_query_s", self.ttq)):
            run.metrics[name] = (
                scaled_median(times, self.factors), "s",
                f"n={n}; raw {statistics.median(times):.6g} s")

    def overhead(self) -> float:
        if not self.walls[True] or not self.walls[False]:
            return 0.0
        return statistics.median(self.walls[True]) - statistics.median(self.walls[False])


def _finish(run: Run, units: Units, reads: Reads, tail_n: int,
            tracer: Tracer | None) -> None:
    """End-to-end metrics, read right after the last timed unit.

    Timings are reported at reference host speed: each is divided by the
    host-speed factor of probes taken at the time it was measured (see
    :func:`timed_imports`, :meth:`Units.metrics` and :meth:`Reads.metrics`).
    The raw value is printed beside each."""
    run.metrics["peak_rss_mib"] = (status_kib("VmHWM") / 1024.0, "MiB", "n=1")
    units.metrics(run)
    reads.metrics(run, tail_n)
    factor = statistics.fmean(reads.probes) / PROBE_REFERENCE_S
    run.metrics["host_speed_factor"] = (factor, "ratio", f"n={len(reads.probes)} probes")
    if tracer is not None:
        run.metrics["trace.overhead_s"] = (
            units.overhead(), "s",
            f"traced {len(units.walls[True])} - untraced {len(units.walls[False])} units",
        )


def _setup_from_imports(run: Run, modules: tuple[str, ...]) -> None:
    times, factors = timed_imports(modules)
    run.metrics["setup_s"] = (
        scaled_median(times, factors), "s",
        f"n={len(times)} imports; raw {statistics.median(times):.6g} s")


# -- graph-1m ----------------------------------------------------------------
def graph_1m(run: Run, seed: int, seconds: float, tracer: Tracer | None, tiny: bool) -> None:
    """Random connected multigraph, m = 10**6, n = m / 4; full pipeline,
    engine build and a long read phase per unit."""
    m = 4000 if tiny else 1_000_000
    per_unit = 60 if tiny else 600
    min_units = 1 if tiny else 3
    limit = 2 + max(int(seconds), min_units)
    _setup_from_imports(run, ("repro", "repro.cluster.graph_linkage", "repro.dendrogram.query"))
    mods = load_modules()
    rng = np.random.default_rng(seed)
    n, edges, weights = gen.random_graph(m, rng)
    mix = gen.read_mix(n, limit, per_unit, 0.05, 0.2, rng, n // 4, keys_per_unit=True)

    reads = Reads(run)
    units = Units(seconds, tracer, mods, min_units, BURST)
    last: dict[str, Any] = {}

    def body(i: int, timed: bool) -> tuple[float, float] | None:
        last.clear()
        units.collect()
        units.probe()
        t0 = time.perf_counter()
        res = run.op(mods.graph_linkage.graph_single_linkage, n, edges, weights)
        t1 = time.perf_counter()
        if res is None:
            return None
        units.probe()
        t1b = time.perf_counter()
        engine = run.op(mods.query.QueryEngine.from_dendrogram, res.dendrogram)
        t2 = time.perf_counter()
        if engine is None:
            return None
        units.probe()
        units.collect()
        answers: dict = {}
        reads.serve(engine, mix.units[i] if timed else mix.units[i][: per_unit // 10],
                    timed, answers)
        last.update(res=res, engine=engine, answers=answers)
        return t1 - t0, (t1 - t0) + (t2 - t1b)

    units.run(limit, body)
    _finish(run, units, reads, min_units * per_unit, tracer)
    if not last:
        run.check("graph-1m produced a result", False)
        return
    res, answers = last["res"], last["answers"]

    # SciPy sums parallel edges, so keep the lightest edge of each pair.
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    order = np.lexsort((weights, lo * n + hi))
    key = (lo * n + hi)[order]
    first = order[np.r_[True, key[1:] != key[:-1]]]
    graph = coo_matrix((weights[first], (lo[first], hi[first])), shape=(n, n))
    ref = minimum_spanning_tree(graph.tocsr())
    run.check("MST weights equal SciPy's on the de-duplicated graph",
              np.array_equal(np.sort(ref.data), np.sort(res.mst.weights)))
    ref_dend = mods.api.single_linkage_dendrogram(
        res.mst, algorithm="sequf", backend="reference")
    run.check("parents equal sequf(backend='reference') on the same MST",
              np.array_equal(ref_dend.parents, res.dendrogram.parents))
    # Answers given during the last unit, and the engine's answer for any
    # pool threshold that unit did not request.
    engine = last["engine"]
    for t in mix.thresholds:
        labels = answers.get(("t", t))
        if labels is None:
            labels = run.op(engine.cut_at, t)
        run.check(f"cut_at({t:.6f}) equals cut_height",
                  labels is not None
                  and np.array_equal(labels, mods.linkage.cut_height(res.mst, t)))


# -- points-8k ---------------------------------------------------------------
KNN_K = 10


def points_8k(run: Run, seed: int, seconds: float, tracer: Tracer | None, tiny: bool) -> None:
    """Gaussian blobs, n = 8192, dim = 8, 16 centers; k-NN single linkage,
    engine build and a short read phase per unit."""
    n = 300 if tiny else 8192
    per_unit = 40 if tiny else 200
    min_units = 1 if tiny else 8
    limit = 2 + max(int(seconds * 2), min_units)
    _setup_from_imports(run, ("repro", "repro.cluster.single_linkage", "repro.dendrogram.query"))
    mods = load_modules()
    rng = np.random.default_rng(seed)
    points = gen.blobs(n, 8, 16, rng)
    scale = gen.knn_distance_scale(points, KNN_K, rng)
    mix = gen.read_mix(n, limit, per_unit, float(np.median(scale)), float(4 * scale.max()),
                       rng, min(1024, n // 4), keys_per_unit=True)

    reads = Reads(run)
    units = Units(seconds, tracer, mods, min_units, BURST)
    last: dict[str, Any] = {}

    def body(i: int, timed: bool) -> tuple[float, float] | None:
        last.clear()
        units.collect()
        units.probe()
        t0 = time.perf_counter()
        res = run.op(mods.single_linkage.single_linkage, points, KNN_K)
        t1 = time.perf_counter()
        if res is None:
            return None
        units.probe()
        t1b = time.perf_counter()
        engine = run.op(mods.query.QueryEngine.from_dendrogram, res.dendrogram)
        t2 = time.perf_counter()
        if engine is None:
            return None
        units.probe()
        units.collect()
        reads.serve(engine, mix.units[i] if timed else mix.units[i][: per_unit // 10], timed)
        last.update(res=res)
        return t1 - t0, (t1 - t0) + (t2 - t1b)

    units.run(limit, body)
    _finish(run, units, reads, min_units * per_unit, tracer)
    if not last:
        run.check("points-8k produced a result", False)
        return
    res = last["res"]

    _, gedges, gweights = mods.knn.knn_graph(points, KNN_K)
    graph = coo_matrix((gweights, (gedges[:, 0], gedges[:, 1])), shape=(n, n))
    ref = minimum_spanning_tree(graph.tocsr())
    run.check("MST weights on the k-NN graph equal SciPy's",
              np.array_equal(np.sort(ref.data), np.sort(res.mst.weights)))
    # Symmetrized exact k-NN pairs; the graph adds only component bridges.
    _, idx = cKDTree(points).query(points, KNN_K + 1)
    rows = np.repeat(np.arange(n), KNN_K)
    cols = idx[:, 1:].ravel()
    want = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    have = np.unique(gedges.min(axis=1) * n + gedges.max(axis=1))
    sym = coo_matrix((np.ones(want.size), (want // n, want % n)), shape=(n, n))
    bridges = connected_components(sym, directed=False)[0] - 1
    sample = rng.choice(n, min(n, 256), replace=False)
    on_sample = lambda keys: keys[np.isin(keys // n, sample) | np.isin(keys % n, sample)]
    run.check("k-NN pairs contain every cKDTree neighbour pair",
              bool(np.isin(want, have).all()))
    run.check("k-NN graph adds only component bridges",
              have.size - want.size == bridges)
    extra = np.setdiff1d(on_sample(have), on_sample(want)).size
    run.check("sampled neighbour sets equal cKDTree's (up to bridges)", extra <= bridges)


# -- dynamic-100k ------------------------------------------------------------
BATCH_INSERTS = 4
BATCH_DELETES = 4
DYNAMIC_READS = 20
#: Probes per burst around each batch's builds (about 5 ms).
DYNAMIC_BURST = 20


def dynamic_100k(run: Run, seed: int, seconds: float, tracer: Tracer | None,
                 tiny: bool) -> None:
    """Simple random graph, m ~ 10**5, n = 25,000; per unit one update
    batch, a republish into a fresh engine and a few reads."""
    m = 4000 if tiny else 100_000
    min_units = 1 if tiny else 50
    limit = 2 + max(int(seconds * 4), min_units)
    times, factors = timed_imports(("repro", "repro.core.dynamic", "repro.dendrogram.query"))
    mods = load_modules()
    rng = np.random.default_rng(seed)
    n, edges, weights = gen.simple_graph(m, rng)
    stream = gen.update_stream(n, edges, limit, BATCH_INSERTS, BATCH_DELETES, rng)
    mix = gen.read_mix(n, limit, DYNAMIC_READS, 0.05, 0.2, rng, n // 4, keys_per_unit=False)

    DynamicSLD, QueryEngine = mods.dynamic.DynamicSLD, mods.query.QueryEngine
    if tracer is not None:
        tracer.install(mods)
        tracer.unit = -1
    builds, build_factors = [], []
    live: dict[str, Any] = {}
    for _ in range(BUILD_REPEATS):
        live.clear()
        dyn = engine = None
        gc.collect()
        before = burst_factor()
        t0 = time.perf_counter()
        dyn = run.op(DynamicSLD.from_graph, n, edges, weights)
        engine = run.op(lambda: QueryEngine(dyn.snapshot())) if dyn is not None else None
        builds.append(time.perf_counter() - t0)
        build_factors.append((before + burst_factor()) / 2)
        live.update(dyn=dyn, engine=engine)
    if tracer is not None:
        tracer.unit = None
        tracer.uninstall()
    run.metrics["setup_s"] = (
        scaled_median(times, factors) + scaled_median(builds, build_factors), "s",
        f"n={len(times)} imports + n={len(builds)} from_graph+snapshot; raw "
        f"{statistics.median(times) + statistics.median(builds):.6g} s",
    )
    dyn = live["dyn"]
    if dyn is None or live["engine"] is None:
        run.check("dynamic-100k engine built", False)
        return

    reads = Reads(run)
    units = Units(seconds, tracer, mods, min_units, DYNAMIC_BURST)
    stamps: list[tuple[int, int]] = [(dyn.generation, live["engine"].generation)]

    def body(i: int, timed: bool) -> tuple[float, float] | None:
        ins, dels = stream.batches[i]
        units.collect()
        units.probe()
        t0 = time.perf_counter()
        if run.op(dyn.apply_batch, ins, dels) is None:
            return None
        t1 = time.perf_counter()
        units.probe()
        t1b = time.perf_counter()
        engine = run.op(lambda: QueryEngine(dyn.snapshot()))
        t2 = time.perf_counter()
        if engine is None:
            return None
        units.probe()
        stamps.append((dyn.generation, engine.generation))
        live["engine"] = engine
        reads.serve(engine, mix.units[i], timed)
        return t1 - t0, (t1 - t0) + (t2 - t1b)

    applied = units.run(limit, body) + 1
    _finish(run, units, reads, min_units * DYNAMIC_READS, tracer)

    # The engine's edge set must be the shadow model's after the batches.
    pairs = set(zip(np.minimum(edges[:, 0], edges[:, 1]).tolist(),
                    np.maximum(edges[:, 0], edges[:, 1]).tolist()))
    for ins, dels in stream.batches[:applied]:
        pairs.update((a, b) for a, b, _ in ins)
        pairs.difference_update(dels)
    gedges, gweights = dyn.graph_edges()
    have = set(zip(gedges.min(axis=1).tolist(), gedges.max(axis=1).tolist()))
    run.check("graph edges equal the shadow edge set", have == pairs)
    fresh = mods.graph_linkage.graph_single_linkage(n, gedges, gweights)
    run.check("tree equals a from-scratch MST of graph_edges()",
              np.array_equal(fresh.mst.edges, dyn.edges)
              and np.array_equal(fresh.mst.weights, dyn.weights))
    run.check("parents equal a from-scratch recompute",
              np.array_equal(fresh.dendrogram.parents, dyn.parents))
    ks = sorted({arg[1] for reqs in mix.units[:applied] for kind, arg in reqs
                 if kind == "cut" and arg[0] == "k"})[:8]
    engine = live["engine"]
    for k in ks:
        labels = run.op(engine.cut_k, k)
        run.check(f"cut_k({k}) equals a from-scratch cut_k",
                  labels is not None
                  and np.array_equal(labels, mods.linkage.cut_k(fresh.mst, k)))
    gens = [g for g, _ in stamps]
    run.check("generation stamps are monotone and match the engine",
              all(a <= b for a, b in zip(gens, gens[1:]))
              and all(g == s for g, s in stamps))


WORKLOADS: dict[str, Callable[[Run, int, float, Tracer | None, bool], None]] = {
    "graph-1m": graph_1m,
    "points-8k": points_8k,
    "dynamic-100k": dynamic_100k,
}
