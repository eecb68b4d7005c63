from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tagforge import clustering
from tagforge.clustering import (ClusteringError, HashingProvider, distill,
                                 embed_batch, k_means, k_medoids, _bucket,
                                 _distance_matrix)
from tagforge.planted import make_world

from oracles import (brute_force_medoids, reference_hashing_embed,
                     reference_k_medoids, reference_swap_descent)


def test_hashing_provider_deterministic(provider):
    a = embed_batch(provider, ["water bottle", "tent pole"])
    b = embed_batch(provider, ["water bottle", "tent pole"])
    assert np.array_equal(a, b)


def test_hashing_provider_unit_norm(provider):
    vectors = embed_batch(provider, ["alpha beta gamma", "x", "one two"])
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


@pytest.mark.parametrize("dim", [1, 7, 256])
def test_hashing_provider_matches_per_token_reference(dim):
    world = make_world(branching=(4, 4), n_items=300, seed=3)
    texts = [item.prompt_text() for item in world.corpus]
    texts += ["", "!!", "Tent tent TENT pole", "tent-pole tent_pole 42 42"]
    assert np.array_equal(HashingProvider(dim=dim).embed(texts),
                          reference_hashing_embed(texts, dim))


def test_disjoint_tokens_cosine_zero(provider):
    # Construct two token sets mapping to disjoint buckets, then cosine is 0.
    words = [f"w{i}" for i in range(200)]
    first = [w for w in words if _bucket(w, provider.dim) % 2 == 0][:4]
    second = [w for w in words if _bucket(w, provider.dim) % 2 == 1][:4]
    assert first and second
    vectors = embed_batch(provider, [" ".join(first), " ".join(second)])
    assert abs(float(vectors[0] @ vectors[1])) < 1e-12


def test_k_medoids_k_equals_n():
    vectors = np.array([[0.0], [1.0], [5.0]])
    result = k_medoids(vectors, k=3)
    assert result.total_cost == 0.0
    assert result.medoid_indices == [0, 1, 2]


def test_k_medoids_line_symmetry():
    vectors = np.array([[0.0], [1.0], [2.0]])
    result = k_medoids(vectors, k=1)
    assert result.medoid_indices == [1]
    assert result.total_cost == pytest.approx(2.0)


def test_k_medoids_matches_brute_force():
    # n <= 8, k <= 3 random instances against exhaustive search.
    rng = np.random.default_rng(123)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        vectors = rng.normal(size=(n, 2))
        result = k_medoids(vectors, k)
        _, best_cost = brute_force_medoids(vectors, k)
        assert result.total_cost == pytest.approx(best_cost, abs=1e-9), \
            f"trial {trial}: PAM {result.total_cost} vs optimal {best_cost}"


def _planted_vectors(n_items: int) -> np.ndarray:
    world = make_world(branching=(4, 4), n_items=n_items, seed=3)
    texts = [item.prompt_text() for item in world.corpus]
    return embed_batch(HashingProvider(dim=256), texts)


def _cost(dist: np.ndarray, medoids) -> float:
    return float(dist[:, list(medoids)].min(axis=1).sum())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), k=st.integers(1, 16), dim=st.integers(1, 4),
       grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=118, k=11, dim=1, grid=False, seed=467)
def test_k_medoids_matches_reference_swap(n, k, dim, grid, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    if grid:
        vectors = rng.integers(0, 4, size=(n, dim)).astype(float)
    else:
        vectors = rng.normal(size=(n, dim))
    result = k_medoids(vectors, k, seed=seed)
    # Scored the reference way, no single swap from the result helps.
    _, swapped_cost, _ = reference_swap_descent(
        _distance_matrix(vectors), result.medoid_indices, max_iter=1)
    assert swapped_cost >= result.total_cost - 1e-9 * n
    # Grid points give duplicates and exactly tied swaps, which each scoring
    # resolves by its own rounding; about one grid instance in 150 then
    # descends to another local optimum, of lower or of higher cost
    # (n=135, k=16, dim=4, seed=798304: 129.997 against 129.658). In one
    # dimension a sum of absolute distances is flat between medians, so
    # swaps tie exactly there too: at n=118, k=11, seed=467, the fifth random
    # start's third swap takes candidate 94 here and 96 in the reference,
    # both at cost 10.089593161061714, and the descents stop at 8.822047
    # and 8.825203. The checks above and below still hold for both cases.
    if not (grid or dim == 1):
        reference = reference_k_medoids(vectors, k, seed=seed)
        assert abs(result.total_cost - reference.total_cost) <= 1e-9 * n
    if n <= 40:
        dist = np.linalg.norm(vectors[:, None] - vectors[None, :], axis=2)
        medoids = result.medoid_indices
        cost = _cost(dist, medoids)
        for mi in range(k):
            for h in set(range(n)) - set(medoids):
                swapped = medoids[:mi] + [h] + medoids[mi + 1:]
                assert _cost(dist, swapped) >= cost - 1e-9, (mi, h)


def _count_descents(monkeypatch) -> list:
    calls = []
    descent = clustering._swap_descent

    def counting(*args, **kwargs):
        calls.append(1)
        return descent(*args, **kwargs)

    monkeypatch.setattr(clustering, "_swap_descent", counting)
    return calls


@pytest.mark.parametrize("k", [1, 4, 15])
def test_k_medoids_restarts_only_up_to_clara_sample_size(monkeypatch, k):
    rng = np.random.default_rng(k)
    calls = _count_descents(monkeypatch)
    for n, descents in ((40 + 2 * k, 1 + clustering._RESTARTS), (41 + 2 * k, 1)):
        calls.clear()
        k_medoids(rng.normal(size=(n, 3)), k, seed=k)
        assert len(calls) == descents, n


def test_k_medoids_planted_items_match_reference_medoids():
    # n > 40 + 2k: the BUILD start alone.
    vectors = _planted_vectors(400)
    result = k_medoids(vectors, 15, seed=4)
    reference = reference_k_medoids(vectors, 15, seed=4)
    assert result.medoid_indices == reference.medoid_indices
    assert result.total_cost == reference.total_cost


def test_k_medoids_planted_restarts_match_reference_medoids(monkeypatch):
    # n = 40 + 2k: BUILD plus the seeded random restarts.
    vectors = _planted_vectors(70)
    calls = _count_descents(monkeypatch)
    result = k_medoids(vectors, 15, seed=4)
    assert len(calls) == 1 + clustering._RESTARTS
    monkeypatch.undo()
    reference = reference_k_medoids(vectors, 15, seed=4)
    assert result.medoid_indices == reference.medoid_indices
    assert result.total_cost == reference.total_cost


def test_k_medoids_memory_peak_below_two_distance_matrices():
    n = 1500
    vectors = _planted_vectors(n)
    tracemalloc.start()
    try:
        k_medoids(vectors, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8


def test_k_medoids_cost_history_non_increasing():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(60, 3))
    result = k_medoids(vectors, k=5)
    history = result.cost_history
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_k_medoids_assignments_point_to_nearest_medoid():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(40, 2))
    result = k_medoids(vectors, k=4)
    medoids = result.medoid_indices
    for i in range(len(vectors)):
        dists = [np.linalg.norm(vectors[i] - vectors[m]) for m in medoids]
        assert dists[result.assignment[i]] == pytest.approx(min(dists))


def test_k_medoids_rejects_bad_inputs():
    with pytest.raises(ClusteringError):
        k_medoids(np.zeros((3, 2)), k=4)
    with pytest.raises(ClusteringError):
        k_medoids(np.array([[np.nan, 0.0]]), k=1)


def test_k_means_k_equals_n():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    result = k_means(vectors, k=3, seed=0)
    assert result.total_cost == pytest.approx(0.0)


def test_k_means_two_separated_blobs_exact():
    vectors = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
    result = k_means(vectors, k=2, seed=3)
    assert result.assignment[0] == result.assignment[1]
    assert result.assignment[2] == result.assignment[3]
    centers = sorted(round(float(c[0]), 6) for c in result.centroids)
    assert centers == [0.1, 10.1]


def _brute_force_partition_cost(vectors: np.ndarray, k: int) -> float:
    n = len(vectors)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) < k:
            continue
        cost = 0.0
        for c in range(k):
            members = vectors[[i for i in range(n) if labels[i] == c]]
            center = members.mean(axis=0)
            cost += float(np.sqrt(((members - center) ** 2).sum(axis=1)).sum())
        best = min(best, cost)
    return best


def test_k_means_reaches_optimum_on_separated_blobs():
    rng = np.random.default_rng(11)
    for trial in range(10):
        blob_a = rng.normal(loc=0.0, scale=0.05, size=(4, 2))
        blob_b = rng.normal(loc=8.0, scale=0.05, size=(4, 2))
        vectors = np.vstack([blob_a, blob_b])
        result = k_means(vectors, k=2, seed=trial)
        optimal = _brute_force_partition_cost(vectors, 2)
        assert result.total_cost == pytest.approx(optimal, rel=1e-9)


def test_k_means_within_five_percent_best_of_trials():
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(8, 2))
    optimal = _brute_force_partition_cost(vectors, 2)
    best = min(k_means(vectors, k=2, seed=s).total_cost for s in range(50))
    assert best <= optimal * 1.05 + 1e-9


def test_distill_k_equals_count(provider):
    texts = ["alpha", "beta", "gamma"]
    assert distill(texts, 3, provider) == texts
    assert distill(texts, 10, provider) == texts


def test_distill_subset_and_size(provider):
    texts = [f"text number {i}" for i in range(30)]
    out = distill(texts, 7, provider, seed=1)
    assert len(out) == 7
    assert set(out) <= set(texts)


def test_distill_planted_groups_one_representative_each(provider):
    # 15 planted groups with group-disjoint token vocabularies; distilling
    # 15 from 1000 must pick exactly one representative per group.
    rng = random.Random(99)
    groups = [[f"g{g}tok{j}" for j in range(6)] for g in range(15)]
    texts = []
    labels = []
    for i in range(1000):
        g = i % 15
        words = rng.sample(groups[g], 4)
        texts.append(" ".join(words))
        labels.append(g)
    out = distill(texts, 15, provider, seed=0)
    chosen_groups = {labels[texts.index(t)] for t in out}
    assert len(out) == 15
    assert chosen_groups == set(range(15))
