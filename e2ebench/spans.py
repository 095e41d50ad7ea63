"""Spans around calls into the package's layers, installed at run time.

:class:`Tracer` replaces public functions and methods of already-imported
``repro`` modules with timing wrappers and puts the originals back on
:meth:`Tracer.uninstall`; nothing under ``src/`` is edited.  A function
imported by name into several modules is replaced in each of them, so
every call path is seen.  Spans live in memory as
``(name, parent index, wall_s, cpu_s, facts)`` and are summarised by
:meth:`Tracer.layer_metrics`.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import weakref
from collections.abc import Callable
from typing import Any

import numpy as np

#: Per-layer metric names, in print order (see README.md).
PER_LAYER = (
    "knn.wall_s", "knn.cpu_s", "knn.calls", "knn.edges", "knn.rss_delta_mib",
    "knn.bytes_computed",
    "graph_linkage.wall_s", "graph_linkage.cpu_s", "graph_linkage.calls",
    "graph_linkage.self_s", "graph_linkage.components",
    "single_linkage.wall_s", "single_linkage.cpu_s", "single_linkage.calls",
    "single_linkage.self_s",
    "mst.wall_s", "mst.cpu_s", "mst.calls", "mst.edges_in", "mst.edges_out",
    "mst.rss_delta_mib",
    "sld.wall_s", "sld.cpu_s", "sld.calls", "sld.edges", "sld.height",
    "snapshot.wall_s", "snapshot.cpu_s", "snapshot.calls", "snapshot.self_s",
    "snapshot.leaf_parents_s", "snapshot.depths_s", "snapshot.lifting_s",
    "snapshot.validate_s", "snapshot.bytes", "snapshot.levels", "snapshot.rss_delta_mib",
    "query.merge_heights_s", "query.cluster_of_s", "query.cut_s", "query.requests",
    "query.items", "query.lca_s", "query.labels_s", "query.cut_cache_hits",
    "query.cut_cache_misses", "query.cut_cache_hit_ratio",
    "dynamic.apply_s", "dynamic.republish_s", "dynamic.from_graph_s", "dynamic.batches",
    "dynamic.ops", "dynamic.recomputed_edges", "dynamic.recomputed_share",
    "dynamic.generation_bumps", "dynamic.noop_batch_ms", "dynamic.rolled_back",
    "gc.pause_s", "gc.gen2_collections",
    "trace.units", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("bytes", "B"),
                         ("bytes_computed", "B"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def status_kib(field: str) -> int:
    """A ``/proc/self/status`` field in KiB (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def _reset_peak() -> None:
    """Reset VmHWM to the current RSS (Linux ``clear_refs`` code 5)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


class Span:
    __slots__ = ("name", "parent", "wall", "cpu", "child_wall", "facts", "unit")

    def __init__(self, name: str, parent: int, unit: int) -> None:
        self.name = name
        self.parent = parent
        self.unit = unit
        self.wall = 0.0
        self.cpu = 0.0
        self.child_wall = 0.0
        self.facts: dict[str, float] = {}

    @property
    def self_wall(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.wall - self.child_wall


class Tracer:
    """Records spans for calls made while :attr:`unit` is not ``None``.

    The caller sets :attr:`unit` to a label (a repetition or batch number)
    for each timed unit and back to ``None`` between units, so set-up work,
    checks and the benchmark's own ``gc.collect()`` calls leave no spans.
    Spans recorded with ``unit == -1`` belong to set-up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._cut_seen: weakref.WeakKeyDictionary[Any, dict[Any, Any]] = (
            weakref.WeakKeyDictionary()
        )
        self._generation: weakref.WeakKeyDictionary[Any, int] = weakref.WeakKeyDictionary()
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    # -- spans ------------------------------------------------------------
    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        facts: Callable[[tuple, dict, Any], dict[str, float]] | None,
        rss: bool,
    ) -> Any:
        if self.unit is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.unit)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if rss:
            # Nested rss spans would reset each other's peak; none of the
            # wrapped layers nests another rss layer.
            _reset_peak()
            base = status_kib("VmRSS")
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.wall = time.perf_counter() - w0
            span.cpu = time.process_time() - c0
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_wall += span.wall
        if rss:
            span.facts["rss_delta_mib"] = (status_kib("VmHWM") - base) / 1024.0
        if facts is not None:
            span.facts.update(facts(args, kwargs, out))
        return out

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        facts: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
        rss: bool = False,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, facts, rss)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------
    def patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(self, fn: Callable[..., Any], new: Callable[..., Any]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, new)

    def install(self, modules: Any) -> None:
        """Wrap every layer; ``modules`` is a namespace of imported modules."""
        knn = modules.knn
        gl = modules.graph_linkage
        sl = modules.single_linkage
        mst = modules.mst
        api = modules.api
        snap = modules.snapshot
        query = modules.query
        dyn = modules.dynamic

        def w(name, fn, facts=None, rss=False):
            self.patch_everywhere(fn, self.wrap(name, fn, facts, rss))

        w("knn", knn.knn_graph, rss=True, facts=lambda a, k, out: {
            "edges": float(out[1].shape[0]),
            "bytes_computed": float(out[0]) ** 2 * 8.0,
        })
        w("graph_linkage", gl.graph_single_linkage,
          facts=lambda a, k, out: {"components": float(out.n_components)})
        w("single_linkage", sl.single_linkage)
        w("mst", mst.minimum_spanning_tree, rss=True, facts=lambda a, k, out: {
            "edges_in": float(np.asarray(a[1]).shape[0]),
            "edges_out": float(out.m),
        })
        # DynamicSLD.from_graph builds its tree with kruskal_mst directly.
        self.patch(dyn, "kruskal_mst", self.wrap(
            "mst", dyn.kruskal_mst, rss=True, facts=lambda a, k, out: {
                "edges_in": float(np.asarray(a[1]).shape[0]),
                "edges_out": float(out.shape[0]),
            }))
        w("sld", api.single_linkage_dendrogram, facts=lambda a, k, out: {
            "edges": float(out.m), "height": float(out.height),
        })
        w("snapshot", snap.build_snapshot, rss=True, facts=lambda a, k, out: {
            "bytes": float(out.nbytes), "levels": float(out.levels),
        })
        for name, attr in (("snapshot.leaf_parents", "leaf_parents"),
                           ("snapshot.depths", "node_depths"),
                           ("snapshot.lifting", "lifting_table")):
            self.patch(snap, attr, self.wrap(name, getattr(snap, attr)))
        cls = snap.DendrogramSnapshot
        self.patch(cls, "validate", self.wrap("snapshot.validate", cls.validate))

        qe = query.QueryEngine
        for method in ("merge_heights", "cluster_of"):
            self.patch(qe, method, self.wrap(
                f"query.{method}", getattr(qe, method),
                facts=lambda a, k, out: {"items": float(out.shape[0])}))
        for method, tag in (("cut_at", "t"), ("cut_k", "k")):
            self.patch(qe, method, self.wrap(
                "query.cut", getattr(qe, method), facts=self._cut_facts(tag)))
        self.patch(query, "batched_lca", self.wrap("query.lca", query.batched_lca))
        self.patch(query, "canonical_labels",
                   self.wrap("query.labels", query.canonical_labels))

        d = dyn.DynamicSLD
        apply_batch = d.apply_batch

        def apply_noting_generation(engine: Any, *args: Any, **kwargs: Any) -> Any:
            self._generation[engine] = engine.generation
            return apply_batch(engine, *args, **kwargs)

        self.patch(d, "apply_batch", self.wrap("dynamic.apply", apply_noting_generation,
                                               facts=self._apply_facts))
        self.patch(d, "snapshot", self.wrap("dynamic.republish", d.snapshot))
        self.patch(d, "from_graph", classmethod(self.wrap(
            "dynamic.from_graph", d.__dict__["from_graph"].__func__)))

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _cut_facts(self, tag: str) -> Callable[[tuple, dict, Any], dict[str, float]]:
        """A cut-cache hit is the engine returning the very array object it
        returned for the same key before; this is observed from outside."""

        def facts(args: tuple, kwargs: dict, out: Any) -> dict[str, float]:
            engine, key = args[0], (tag, args[1])
            seen = self._cut_seen.setdefault(engine, {})
            hit = seen.get(key) is out
            seen[key] = out
            return {"items": 1.0, "hit": float(hit)}

        return facts

    def _apply_facts(self, args: tuple, kwargs: dict, out: Any) -> dict[str, float]:
        engine = args[0]
        bumped = engine.generation > self._generation[engine]
        return {
            "recomputed": float(out),
            "tree_edges": float(engine.m),
            "ops": float(len(args[1]) + len(args[2])),
            "bumped": float(bumped),
        }

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.unit is None or self.unit < 0:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- summary ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the timed units (``unit >= 0``).

        Times are seconds per unit (total over the timed units divided by
        their number); counts are totals; ``edges``/``height``/``bytes``/
        ``levels``/``components``/``rss_delta_mib`` are the largest value
        seen.  Layers never called report zeros.
        """
        timed = [s for s in self.spans if s.unit >= 0]
        units = len({s.unit for s in timed}) or 1
        by: dict[str, list[Span]] = {}
        for s in timed:
            by.setdefault(s.name, []).append(s)

        def spans(name: str) -> list[Span]:
            return by.get(name, [])

        def per_unit(name: str, attr: str = "wall") -> float:
            return sum(getattr(s, attr) if attr != "self" else s.self_wall
                       for s in spans(name)) / units

        def most(name: str, fact: str) -> float:
            return max((s.facts.get(fact, 0.0) for s in spans(name)), default=0.0)

        def total(name: str, fact: str) -> float:
            return sum(s.facts.get(fact, 0.0) for s in spans(name))

        out: dict[str, float] = {}
        for layer in ("knn", "graph_linkage", "single_linkage", "mst", "sld", "snapshot"):
            out[f"{layer}.wall_s"] = per_unit(layer)
            out[f"{layer}.cpu_s"] = per_unit(layer, "cpu")
            out[f"{layer}.calls"] = float(len(spans(layer)))
        out["knn.edges"] = most("knn", "edges")
        out["knn.rss_delta_mib"] = most("knn", "rss_delta_mib")
        out["knn.bytes_computed"] = most("knn", "bytes_computed")
        out["graph_linkage.self_s"] = per_unit("graph_linkage", "self")
        out["graph_linkage.components"] = most("graph_linkage", "components")
        out["single_linkage.self_s"] = per_unit("single_linkage", "self")
        out["mst.edges_in"] = most("mst", "edges_in")
        out["mst.edges_out"] = most("mst", "edges_out")
        out["mst.rss_delta_mib"] = most("mst", "rss_delta_mib")
        out["sld.edges"] = most("sld", "edges")
        out["sld.height"] = most("sld", "height")
        out["snapshot.self_s"] = per_unit("snapshot", "self")
        out["snapshot.leaf_parents_s"] = per_unit("snapshot.leaf_parents")
        out["snapshot.depths_s"] = per_unit("snapshot.depths")
        out["snapshot.lifting_s"] = per_unit("snapshot.lifting")
        out["snapshot.validate_s"] = per_unit("snapshot.validate")
        out["snapshot.bytes"] = most("snapshot", "bytes")
        out["snapshot.levels"] = most("snapshot", "levels")
        out["snapshot.rss_delta_mib"] = most("snapshot", "rss_delta_mib")

        out["query.merge_heights_s"] = per_unit("query.merge_heights")
        out["query.cluster_of_s"] = per_unit("query.cluster_of")
        out["query.cut_s"] = per_unit("query.cut")
        out["query.requests"] = float(sum(
            len(spans(n)) for n in ("query.merge_heights", "query.cluster_of", "query.cut")
        ))
        out["query.items"] = sum(
            total(n, "items") for n in ("query.merge_heights", "query.cluster_of", "query.cut")
        )
        out["query.lca_s"] = per_unit("query.lca")
        out["query.labels_s"] = per_unit("query.labels")
        hits = total("query.cut", "hit")
        cuts = float(len(spans("query.cut")))
        out["query.cut_cache_hits"] = hits
        out["query.cut_cache_misses"] = cuts - hits
        out["query.cut_cache_hit_ratio"] = hits / cuts if cuts else 0.0

        applies = spans("dynamic.apply")
        out["dynamic.apply_s"] = per_unit("dynamic.apply")
        out["dynamic.republish_s"] = per_unit("dynamic.republish")
        setup_fg = [s.wall for s in self.spans if s.name == "dynamic.from_graph"]
        out["dynamic.from_graph_s"] = statistics.median(setup_fg) if setup_fg else 0.0
        out["dynamic.batches"] = float(len(applies))
        out["dynamic.ops"] = total("dynamic.apply", "ops")
        recomputed = total("dynamic.apply", "recomputed")
        out["dynamic.recomputed_edges"] = recomputed
        slots = total("dynamic.apply", "tree_edges")
        out["dynamic.recomputed_share"] = recomputed / slots if slots else 0.0
        out["dynamic.generation_bumps"] = total("dynamic.apply", "bumped")
        noop = [s.wall * 1e3 for s in applies if s.facts.get("recomputed", 1.0) == 0.0]
        out["dynamic.noop_batch_ms"] = statistics.median(noop) if noop else 0.0
        out["dynamic.rolled_back"] = float(sum(1 for s in applies if "recomputed" not in s.facts))

        out["gc.pause_s"] = self.gc_pause / units
        out["gc.gen2_collections"] = float(self.gc_gen2)
        out["trace.units"] = float(len({s.unit for s in timed}))
        return out
