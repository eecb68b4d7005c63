"""Embedding providers plus K-Medoids / K-Means used for sample distillation.

The default provider hashes tokens into a fixed number of buckets and
L2-normalizes, so everything runs offline and deterministically. K-Medoids
is classic PAM (greedy BUILD, then best-improvement SWAP) over Euclidean
distances; K-Means is k-means++ seeded Lloyd iteration.

PAM adds seeded random restarts only on instances of at most 40 + 2k
points, classic CLARA's sample size (Kaufman & Rousseeuw, "Finding Groups
in Data", 1990). There a descent is cheap, and BUILD + SWAP alone misses
the optimum of 4 to 6 in 100 random instances of n <= 8. Above it each
restart costs as much as a full descent, and on the demo's node-sized
instances (n of 124 to 512, k = 15) the restarts lowered the cost by at
most 0.12%.

PAM holds one n x n distance matrix and works through it in blocks of 256
candidate columns, so its other temporaries stay small. SWAP scores all
k x n (medoid, candidate) swaps in one pass per iteration with FastPAM1's
split of the cost change into a term shared by every medoid plus a term
over the points the removed medoid owns (Schubert & Rousseeuw, "Fast and
eager k-medoids clustering", Information Systems 2021). It then takes the
first minimum in (medoid, candidate) order; swaps of equal cost in exact
arithmetic may resolve differently under rounding.

``distill`` never builds a matrix over more than 80 + 4k points. Above
that it runs CLARA: PAM on seeded samples of that size, each medoid set
scored on all points, so its memory is O(n (d + k)) plus one sample's
matrix (the module constants below say how many samples, and why).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ClusteringError(ValueError):
    pass


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


@dataclass
class HashingProvider:
    """Deterministic offline embeddings: token counts hashed into dim buckets."""

    dim: int = 256
    name: str = "hashing"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Each distinct token of the call is hashed once; the memo lives
        for this call only, so it never outgrows the call's texts."""
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        buckets: dict[str, int] = {}
        for row, text in enumerate(texts):
            for token in _TOKEN_RE.findall(text.lower()):
                bucket = buckets.get(token)
                if bucket is None:
                    bucket = buckets[token] = _bucket(token, self.dim)
                out[row, bucket] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out


def embed_batch(provider, texts: Sequence[str]) -> np.ndarray:
    """Embed text list; validates shape and finiteness."""
    if not texts:
        raise ClusteringError("texts must be non-empty")
    vectors = provider.embed(list(texts))
    if vectors.shape != (len(texts), provider.dim):
        raise ClusteringError(
            f"provider {provider.name} returned shape {vectors.shape}, "
            f"expected {(len(texts), provider.dim)}")
    if not np.all(np.isfinite(vectors)):
        raise ClusteringError("provider returned non-finite values")
    return vectors


@dataclass
class ClusterResult:
    k: int
    assignment: np.ndarray
    total_cost: float
    medoid_indices: list[int] | None = None
    centroids: np.ndarray | None = None
    cost_history: list[float] = field(default_factory=list)


def _check_inputs(vectors: np.ndarray, k: int) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ClusteringError("vectors must be a 2-D array")
    n = vectors.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must satisfy 1 <= k <= n={n}")
    if not np.all(np.isfinite(vectors)):
        raise ClusteringError("vectors contain NaN or inf")
    return vectors


# Candidate columns per block: BUILD's and SWAP's temporaries are n x _BLOCK,
# so the n x n distance matrix is the only array of its size.
_BLOCK = 256


def _blocks(n: int):
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _distance_matrix(vectors: np.ndarray) -> np.ndarray:
    """Euclidean distances, built in place in one n x n array.

    Each entry is ``sqrt(max((|a|^2 + |b|^2) + (-2a).b, 0))``: the vectors
    are scaled before the product, so the values are bit-identical to
    ``|a|^2 + |b|^2 - (2a).b`` and do not depend on the block size.
    """
    sq = np.sum(vectors ** 2, axis=1)
    dist = (-2.0 * vectors) @ vectors.T
    for rows in _blocks(len(sq)):
        dist[rows] += sq[rows, None] + sq[None, :]
    np.maximum(dist, 0.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return np.sqrt(dist, out=dist)


def _pam_build(dist: np.ndarray, k: int) -> list[int]:
    """Greedy BUILD: 1-medoid optimum, then the best-improving additions."""
    n = dist.shape[0]
    medoids = [int(np.argmin(dist.sum(axis=0)))]
    nearest = dist[:, medoids[0]].copy()
    candidate_cost = np.empty(n)
    while len(medoids) < k:
        for cols in _blocks(n):
            candidate_cost[cols] = np.minimum(nearest[:, None],
                                              dist[:, cols]).sum(axis=0)
        candidate_cost[medoids] = np.inf
        best = int(np.argmin(candidate_cost))
        medoids.append(best)
        np.minimum(nearest, dist[:, best], out=nearest)
    return medoids


def _nearest_two(dist: np.ndarray, medoids: list[int]):
    """Distance to the nearest and second-nearest medoid, and the position
    in ``medoids`` of the nearest (the first one on a tie)."""
    n = dist.shape[0]
    cols = dist[:, medoids]
    order = np.argsort(cols, axis=1, kind="stable")
    d1 = cols[np.arange(n), order[:, 0]]
    if len(medoids) > 1:
        d2 = cols[np.arange(n), order[:, 1]]
    else:
        d2 = np.full(n, np.inf)
    return d1, d2, order[:, 0]


def _swap_deltas(dist: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                 owner: np.ndarray, k: int) -> np.ndarray:
    """Cost change of swapping medoid ``m`` for point ``h``, as a k x n array.

    FastPAM1's split: every point j moves to h when h is nearer than its
    medoid, a term shared by all m; the points m owns that stay farther
    from h than from m fall back to min(d(j, h), d2(j)) instead.
    """
    n = dist.shape[0]
    # Rows sorted by owner, so that one reduceat sums each medoid's points;
    # a medoid that owns no point (a duplicate of another) has no segment.
    rows = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=k)
    owners = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[owners]
    near, second = d1[rows, None], d2[rows, None]
    delta = np.zeros((k, n))
    for cols in _blocks(n):
        block = dist[rows, cols]
        closer = block - near
        delta[:, cols] = np.minimum(closer, 0.0, out=closer).sum(axis=0)
        np.minimum(block, second, out=block)
        block -= near
        np.maximum(block, 0.0, out=block)
        delta[owners, cols] += np.add.reduceat(block, starts, axis=0)
    return delta


def _swap_descent(dist: np.ndarray, medoids: list[int],
                  max_iter: int) -> tuple[list[int], float, list[float]]:
    """Best-improvement SWAP until no swap lowers the cost.

    Each iteration scores all k x n swaps in one pass over ``dist`` and
    takes the first minimum in (medoid, candidate) order.
    """
    medoids = list(medoids)
    d1, d2, owner = _nearest_two(dist, medoids)
    cost = float(d1.sum())
    history = [cost]
    for _ in range(max_iter):
        delta = _swap_deltas(dist, d1, d2, owner, len(medoids))
        delta[:, medoids] = np.inf
        mi, h = np.unravel_index(int(np.argmin(delta)), delta.shape)
        if not delta[mi, h] < -1e-12:
            break
        medoids[mi] = int(h)
        d1, d2, owner = _nearest_two(dist, medoids)
        cost = float(d1.sum())
        history.append(cost)
    return medoids, cost, history


_RESTARTS = 6
_MAX_SWAP_ITER = 100
# CLARA in ``distill``: samples per call, and sample size 80 + 4k. Kaufman &
# Rousseeuw's classic setting is 5 samples of 40 + 2k; Schubert & Rousseeuw
# (2021) pair CLARA with larger samples once SWAP is cheap. On Sports-scale
# planted worlds (18,357 items, k = 15, seeds 7 and 11) 10 x (80 + 4k) put
# the full-data cost 1.5-1.6% above PAM's on an average non-root node and
# 5.1-5.3% above at the root. 5 x (40 + 2k) sent the root into a second
# refinement cycle and raised the build's LLM calls by 40% (seed 7).
_CLARA_SAMPLES = 10
_CLARA_BASE = 80
_CLARA_PER_MEDOID = 4


def k_medoids(vectors: np.ndarray, k: int, seed: int = 0) -> ClusterResult:
    """PAM: greedy BUILD then best-improvement SWAP until no swap improves.

    Distances are Euclidean. Each SWAP iteration scores every (medoid,
    candidate) swap in one pass over column blocks of the distance matrix
    and applies the first minimum in (medoid, candidate) order if it lowers
    the cost by more than 1e-12; BUILD ties break toward the lowest index.
    Swaps of equal cost in exact arithmetic may resolve differently under
    rounding, and so may the descent that follows.
    SWAP alone can stall in a single-swap local optimum, so instances of
    at most 40 + 2k points (classic CLARA's sample size) additionally
    descend from ``_RESTARTS`` seeded random starts and keep the best
    result; larger instances, ``distill``'s CLARA samples among them, use
    the BUILD start only (the module docstring says why).
    Each descent makes at most ``_MAX_SWAP_ITER`` swaps.
    Deterministic for a fixed seed.
    """
    vectors = _check_inputs(vectors, k)
    n = vectors.shape[0]
    if k == n:
        return ClusterResult(k=k, assignment=np.arange(n), total_cost=0.0,
                             medoid_indices=list(range(n)), cost_history=[0.0])
    dist = _distance_matrix(vectors)
    starts = [_pam_build(dist, k)]
    rng = np.random.default_rng(seed)
    for _ in range(_RESTARTS if n <= 40 + 2 * k else 0):
        starts.append(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))

    best: tuple[float, list[int], list[float]] | None = None
    for start in starts:
        medoids, cost, history = _swap_descent(dist, start, _MAX_SWAP_ITER)
        key = (cost, sorted(medoids))
        if best is None or key < (best[0], best[1]):
            best = (cost, sorted(medoids), history)
    cost, sorted_medoids, history = best
    cols = dist[:, sorted_medoids]
    owner = np.argmin(cols, axis=1)
    return ClusterResult(k=k, assignment=owner, total_cost=cost,
                         medoid_indices=sorted_medoids, cost_history=history)


def k_means(vectors: np.ndarray, k: int, seed: int = 0,
            max_iters: int = 100) -> ClusterResult:
    """k-means++ seeding then Lloyd iterations to an assignment fixpoint.

    Empty clusters are re-seeded from the point farthest from its center.
    ``total_cost`` is the sum of Euclidean point-to-centroid distances.
    """
    vectors = _check_inputs(vectors, k)
    n = vectors.shape[0]
    rng = np.random.default_rng(seed)

    centers = np.empty((k, vectors.shape[1]))
    first = int(rng.integers(n))
    centers[0] = vectors[first]
    closest_sq = np.sum((vectors - centers[0]) ** 2, axis=1)
    for ci in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centers[ci] = vectors[idx]
        closest_sq = np.minimum(closest_sq,
                                np.sum((vectors - centers[ci]) ** 2, axis=1))

    assignment = np.full(n, -1)
    for _ in range(max_iters):
        d2 = (np.sum(vectors ** 2, axis=1)[:, None]
              + np.sum(centers ** 2, axis=1)[None, :]
              - 2.0 * vectors @ centers.T)
        new_assignment = np.argmin(d2, axis=1)
        for ci in range(k):
            mask = new_assignment == ci
            if mask.any():
                centers[ci] = vectors[mask].mean(axis=0)
            else:
                dists = np.take_along_axis(
                    d2, new_assignment[:, None], axis=1).ravel()
                far = int(np.argmax(dists))
                centers[ci] = vectors[far]
                new_assignment[far] = ci
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    diffs = vectors - centers[assignment]
    total_cost = float(np.sqrt(np.sum(diffs ** 2, axis=1)).sum())
    return ClusterResult(k=k, assignment=assignment, total_cost=total_cost,
                         centroids=centers)


def _nearest_medoid_cost(vectors: np.ndarray, sq: np.ndarray,
                         medoids: list[int]) -> float:
    """Sum over all points of the distance to the nearest of ``medoids``,
    by :func:`_distance_matrix`'s formula on one k x n array."""
    dist = (-2.0 * vectors[medoids]) @ vectors.T
    dist += sq[medoids, None] + sq[None, :]
    np.maximum(dist, 0.0, out=dist)
    dist[np.arange(len(medoids)), medoids] = 0.0
    return float(np.sqrt(dist, out=dist).min(axis=0).sum())


def distill(elements: Sequence, k: int, provider,
            seed: int = 0, text_of: Callable = str) -> list:
    """Diverse representatives: embed, run K-Medoids, return the medoids.

    Up to 80 + 4k elements this is :func:`k_medoids` on all of them. Above
    it, CLARA (Kaufman & Rousseeuw, "Finding Groups in Data", 1990): draw
    ``_CLARA_SAMPLES`` seeded samples of 80 + 4k distinct elements, run
    :func:`k_medoids` on each, score each medoid set by every element's
    distance to its nearest medoid, and keep the lowest (cost, sorted
    indices). Output preserves input order and is always a subset of the
    input; ``k >= len(elements)`` returns the input unchanged.
    Deterministic for a fixed seed.
    """
    elements = list(elements)
    if not elements:
        raise ClusteringError("cannot distill an empty collection")
    if k >= len(elements):
        return elements
    texts = [text_of(e) for e in elements]
    vectors = embed_batch(provider, texts)
    n = len(elements)
    size = _CLARA_BASE + _CLARA_PER_MEDOID * k
    if n <= size:
        result = k_medoids(vectors, k, seed=seed)
        return [elements[i] for i in sorted(result.medoid_indices)]
    rng = np.random.default_rng(seed)
    sq = np.sum(vectors ** 2, axis=1)
    best: tuple[float, list[int]] | None = None
    for _ in range(_CLARA_SAMPLES):
        sample = np.sort(rng.choice(n, size=size, replace=False))
        result = k_medoids(vectors[sample], k, seed=seed)
        medoids = sorted(sample[result.medoid_indices].tolist())
        key = (_nearest_medoid_cost(vectors, sq, medoids), medoids)
        if best is None or key < best:
            best = key
    return [elements[i] for i in best[1]]
