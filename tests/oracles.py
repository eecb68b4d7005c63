"""Slow reference implementations that tests compare the package against."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np

from tagforge import clustering


def brute_force_medoids(vectors: np.ndarray, k: int) -> tuple[list[int], float]:
    """Exhaustive optimum over all medoid subsets; test oracle for small n."""
    vectors = clustering._check_inputs(vectors, k)
    dist = clustering._distance_matrix(vectors)
    best_cost = np.inf
    best: tuple[int, ...] = ()
    for combo in combinations(range(vectors.shape[0]), k):
        cost = dist[:, combo].min(axis=1).sum()
        if cost < best_cost - 1e-15:
            best_cost = cost
            best = combo
    return list(best), float(best_cost)


def reference_swap_descent(dist: np.ndarray, medoids: list[int],
                           max_iter: int) -> tuple[list[int], float, list[float]]:
    """Best-improvement SWAP scored one medoid at a time, O(k n^2) per step.

    Each medoid's pass computes its own swap costs over the whole matrix:
    the textbook PAM loop that ``clustering._swap_descent`` must reproduce.
    """
    n = dist.shape[0]
    k = len(medoids)
    medoids = list(medoids)

    def _nearest_two(medoid_list: list[int]):
        cols = dist[:, medoid_list]
        order = np.argsort(cols, axis=1, kind="stable")
        d1 = cols[np.arange(n), order[:, 0]]
        owner = order[:, 0]
        if len(medoid_list) > 1:
            d2 = cols[np.arange(n), order[:, 1]]
        else:
            d2 = np.full(n, np.inf)
        return d1, d2, owner

    d1, d2, owner = _nearest_two(medoids)
    cost = float(d1.sum())
    history = [cost]
    for _ in range(max_iter):
        best_delta = -1e-12
        best_swap: tuple[int, int] | None = None
        for mi in range(k):
            mine = owner == mi
            others = ~mine
            # Swapping medoid mi for candidate h: points owned by mi move to
            # min(d(h), second-nearest); other points may defect to h.
            gain_mine = (np.minimum(dist[mine], d2[mine, None]) -
                         d1[mine, None]).sum(axis=0)
            gain_others = np.minimum(dist[others] - d1[others, None], 0.0).sum(axis=0)
            delta = gain_mine + gain_others
            delta[medoids] = np.inf
            h = int(np.argmin(delta))
            if delta[h] < best_delta:
                best_delta = float(delta[h])
                best_swap = (mi, h)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        d1, d2, owner = _nearest_two(medoids)
        cost = float(d1.sum())
        history.append(cost)
    return medoids, cost, history


def reference_k_medoids(vectors: np.ndarray, k: int, seed: int = 0,
                        **kwargs) -> clustering.ClusterResult:
    """``clustering.k_medoids`` with every descent run by the reference SWAP."""
    with mock.patch.object(clustering, "_swap_descent", reference_swap_descent):
        return clustering.k_medoids(vectors, k, seed=seed, **kwargs)
