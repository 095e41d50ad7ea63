"""Input generators owned by the benchmark.

Nothing here imports ``repro``: the graphs, point clouds, update streams
and read mixes are defined by this file alone, so a change to the
package cannot change what is measured.  Every generator is a pure
function of its arguments and a ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

#: Share of read requests by kind (exact counts, shuffled).
MIX = (("merge_heights", 0.7), ("cluster_of", 0.2), ("cut", 0.1))
#: Items per merge_heights / cluster_of request.
BATCH_ITEMS = 1024
#: Distinct request payload arrays per kind; requests index into them.
PAYLOADS = 64
#: Cut keys in the pool: larger than the engine's default 32-entry cut
#: cache.  The first THRESHOLDS keys are ``cut_at`` thresholds, the rest
#: ``cut_k`` counts; popularity over the shuffled pool is Zipf(ZIPF_S).
CUT_POOL = 40
THRESHOLDS = 2
ZIPF_S = 1.2


def random_graph(m: int, rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
    """Connected multigraph: a spanning path plus uniform random pairs.

    ``n = m // 4``; weights are uniform on [0, 1).  Parallel pairs may
    occur; self-loops do not.  Rows and orientations are shuffled so no
    algorithm benefits from the path coming first.
    """
    n = max(2, m // 4)
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    extra = m - (n - 1)
    a = rng.integers(0, n, extra)
    b = rng.integers(0, n - 1, extra)
    b = b + (b >= a)
    edges = np.concatenate([path, np.stack([a, b], axis=1)]).astype(np.int64)
    edges = edges[rng.permutation(m)]
    flip = rng.random(m) < 0.5
    edges[flip] = edges[flip, ::-1]
    return n, np.ascontiguousarray(edges), rng.random(m)


def simple_graph(m: int, rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`random_graph` with duplicate pairs dropped (first kept)."""
    n, edges, weights = random_graph(m, rng)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    _, first = np.unique(lo * n + hi, return_index=True)
    first.sort()
    return n, np.ascontiguousarray(edges[first]), weights[first]


def blobs(n: int, dim: int, centers: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic Gaussian blobs (unit spread, centers uniform in [-10, 10])."""
    mu = rng.uniform(-10.0, 10.0, (centers, dim))
    label = rng.integers(0, centers, n)
    return mu[label] + rng.normal(0.0, 1.0, (n, dim))


def knn_distance_scale(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-th nearest-neighbour distances of 256 sampled points (brute force)."""
    sample = points[rng.choice(points.shape[0], 256, replace=False)]
    d2 = ((sample[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(np.sort(d2, axis=1)[:, k])


@dataclass
class ReadMix:
    """Pre-built read requests: ``(kind, arg)`` per request.

    ``merge_heights`` args are ``(B, 2)`` vertex pairs, ``cluster_of`` args
    ``(vertices, threshold)``, ``cut`` args ``("t", threshold)`` or
    ``("k", k)``.  Request payloads are shared between requests.
    """

    units: list[list[tuple[str, object]]]
    #: The ``cut_at`` thresholds of the key pool.
    thresholds: list[float]


def _exact_counts(shares: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of ``shares * total`` to sum ``total``."""
    raw = shares / shares.sum() * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    counts[np.argsort(-(raw - counts), kind="stable")[:short]] += 1
    return counts


def read_mix(
    n: int,
    units: int,
    per_unit: int,
    t_lo: float,
    t_hi: float,
    rng: np.random.Generator,
    k_hi: int,
    keys_per_unit: bool,
) -> ReadMix:
    """``units`` request lists of ``per_unit`` requests each.

    Kind counts are exact per unit (70/20/10, largest remainder).  Cut
    keys come from a pool of :data:`CUT_POOL` keys whose popularity is
    Zipf(:data:`ZIPF_S`) over a seeded permutation, with exact per-key
    counts.  With ``keys_per_unit`` the counts hold within every unit, so
    the number of distinct keys one engine sees is fixed by ``per_unit``
    and not by the seed; otherwise they hold over the whole stream (for
    units too short to carry the skew).
    """
    counts = _exact_counts(np.array([s for _, s in MIX]), per_unit)
    kinds = np.tile(np.repeat(np.arange(len(MIX)), counts), (units, 1))
    for row in kinds:
        rng.shuffle(row)

    pairs = [rng.integers(0, n, (BATCH_ITEMS, 2)) for _ in range(PAYLOADS)]
    verts = [rng.integers(0, n, BATCH_ITEMS) for _ in range(PAYLOADS)]
    thresholds = rng.uniform(t_lo, t_hi, THRESHOLDS)
    ks = rng.choice(np.arange(2, max(3, k_hi)), CUT_POOL - THRESHOLDS, replace=False)
    pool: list[tuple[str, object]] = [("t", float(t)) for t in thresholds]
    pool += [("k", int(k)) for k in ks]
    by_rank = rng.permutation(CUT_POOL)
    zipf = 1.0 / np.arange(1, CUT_POOL + 1) ** ZIPF_S

    def key_seq(total: int) -> list[int]:
        seq = np.repeat(by_rank, _exact_counts(zipf, total))
        rng.shuffle(seq)
        return seq.tolist()

    n_cut = int(counts[2])
    stream_keys = iter([] if keys_per_unit else key_seq(units * n_cut))
    out: list[list[tuple[str, object]]] = []
    for row in kinds:
        cuts = iter(key_seq(n_cut)) if keys_per_unit else stream_keys
        reqs: list[tuple[str, object]] = []
        for kind in row.tolist():
            if kind == 0:
                reqs.append(("merge_heights", pairs[int(rng.integers(PAYLOADS))]))
            elif kind == 1:
                vs = verts[int(rng.integers(PAYLOADS))]
                reqs.append(("cluster_of", (vs, float(rng.uniform(t_lo, t_hi)))))
            else:
                reqs.append(("cut", pool[next(cuts)]))
        out.append(reqs)
    return ReadMix(out, [float(t) for t in thresholds])


@dataclass
class UpdateStream:
    """Legal update batches, each ``(inserts, deletes)``."""

    batches: list[tuple[list[tuple[int, int, float]], list[tuple[int, int]]]]


def update_stream(
    n: int,
    edges: np.ndarray,
    batches: int,
    inserts: int,
    deletes: int,
    rng: np.random.Generator,
) -> UpdateStream:
    """Batches of fresh-pair inserts and existing-pair deletes.

    A shadow edge set makes every batch legal against the state before
    it (inserted pairs are absent, deleted pairs present, no pair twice),
    and the graph after every batch is checked connected; a batch that
    would disconnect it is redrawn.
    """
    cap = edges.shape[0] + batches * inserts
    pa = np.empty(cap, dtype=np.int64)
    pb = np.empty(cap, dtype=np.int64)
    size = edges.shape[0]
    pa[:size] = np.minimum(edges[:, 0], edges[:, 1])
    pb[:size] = np.maximum(edges[:, 0], edges[:, 1])
    index = {p: i for i, p in enumerate(zip(pa[:size].tolist(), pb[:size].tolist()))}
    out = []
    while len(out) < batches:
        ins: list[tuple[int, int, float]] = []
        fresh: list[tuple[int, int]] = []
        while len(ins) < inserts:
            a, b = sorted(rng.integers(0, n, 2).tolist())
            if a != b and (a, b) not in index and (a, b) not in fresh:
                fresh.append((a, b))
                ins.append((a, b, float(rng.random())))
        gone_at = rng.choice(size, deletes, replace=False)
        keep = np.ones(size, dtype=bool)
        keep[gone_at] = False
        fa = np.array([p[0] for p in fresh], dtype=np.int64)
        fb = np.array([p[1] for p in fresh], dtype=np.int64)
        rows = np.concatenate([pa[:size][keep], fa])
        cols = np.concatenate([pb[:size][keep], fb])
        graph = coo_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
        if connected_components(graph, directed=False)[0] != 1:
            continue
        gone = [(int(pa[i]), int(pb[i])) for i in gone_at]
        for p in gone:
            i = index.pop(p)
            size -= 1
            if i < size:
                pa[i], pb[i] = pa[size], pb[size]
                index[(int(pa[i]), int(pb[i]))] = i
        for p in fresh:
            index[p] = size
            pa[size], pb[size] = p
            size += 1
        out.append((ins, gone))
    return UpdateStream(out)
