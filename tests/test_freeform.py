from __future__ import annotations

import pytest

from tagforge.freeform import (FreeformError, FreeformTagTable,
                               frequency_bins, generate_freeform,
                               prune_frequency_bins, pruned_to_semid_rows,
                               tag_utilization)
from tagforge.gateway import BudgetExhaustedError
from tagforge.planted import make_world

from conftest import failing_items_gateway, make_gateway


def test_generate_freeform_mock_explodes_vocabulary(small_world):
    gateway = make_gateway(small_world)
    table = generate_freeform(small_world.corpus, gateway, n_tags_per_item=3)
    assert len(table.tags_by_item) == len(small_world.corpus)
    assert all(len(tags) <= 3 for tags in table.tags_by_item.values())
    # Item-unique surface forms: utilization collapses.
    assert tag_utilization(table) < 0.5


def test_generate_freeform_deterministic(small_world):
    t1 = generate_freeform(small_world.corpus, make_gateway(small_world))
    t2 = generate_freeform(small_world.corpus, make_gateway(small_world))
    assert t1.tags_by_item == t2.tags_by_item
    assert t1.frequency == t2.frequency


def test_generate_freeform_counts_failed_items():
    world = make_world(branching=(3,), n_items=30, seed=5)
    down, garbled = world.corpus.item_ids[3], world.corpus.item_ids[7]
    gateway = failing_items_gateway(world, down, garbled)
    table = generate_freeform(world.corpus, gateway, parallelism=4)
    assert table.n_failed_items == 2
    assert list(table.tags_by_item) == sorted(world.corpus.item_ids)
    assert table.tags_by_item[down] == table.tags_by_item[garbled] == []
    assert all(tags for item_id, tags in table.tags_by_item.items()
               if item_id not in (down, garbled))


def test_generate_freeform_budget_raises_after_exact_budget():
    world = make_world(branching=(3,), n_items=30, seed=5)
    gateway = make_gateway(world, max_calls=13)
    with pytest.raises(BudgetExhaustedError):
        generate_freeform(world.corpus, gateway, parallelism=4)
    assert gateway.ledger.calls() == 13


def _table(freqs: dict[str, int], items: dict[str, list[str]] | None = None):
    table = FreeformTagTable(tags_by_item=items or {})
    table.frequency = dict(freqs)
    return table


def test_frequency_window_excludes_rare_and_common():
    freqs = {"rare": 5, "low": 10, "mid": 100, "high": 2000, "huge": 5000}
    bins = frequency_bins(_table(freqs), min_f=10, max_f=2000, n_bins=2)
    assert "rare" not in bins
    assert "huge" not in bins
    assert set(bins) == {"low", "mid", "high"}


def test_equal_population_bins_differ_by_at_most_one():
    freqs = {f"t{i}": 10 + i for i in range(11)}
    bins = frequency_bins(_table(freqs), min_f=10, max_f=2000, n_bins=4)
    sizes = [sum(1 for b in bins.values() if b == k) for k in range(4)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 11


def test_bin_boundaries_match_independent_rank_sort():
    freqs = {f"tag{i:02d}": f for i, f in
             enumerate([12, 40, 40, 15, 900, 33, 77, 250, 18, 1200, 64, 11])}
    table = _table(freqs)
    bins = frequency_bins(table, min_f=10, max_f=2000, n_bins=4)
    ranked = sorted(freqs, key=lambda t: (-freqs[t], t))
    n, k = len(ranked), 4
    base, rem = divmod(n, k)
    expected = {}
    pos = 0
    for b in range(k):
        for t in ranked[pos:pos + base + (1 if b < rem else 0)]:
            expected[t] = b
        pos += base + (1 if b < rem else 0)
    assert bins == expected


def test_prune_selects_most_frequent_per_bin_coarse_first():
    freqs = {"a": 1000, "b": 500, "c": 100, "d": 50, "e": 20, "f": 15,
             "g": 12, "h": 11}
    items = {"x": ["h", "a", "e"], "y": ["c"]}
    table = _table(freqs, items)
    bins = frequency_bins(table, min_f=10, max_f=2000, n_bins=4)
    # 8 eligible tags, 2 per bin: a,b | c,d | e,f | g,h.
    assert bins == {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2,
                    "g": 3, "h": 3}
    pruned = prune_frequency_bins(table, min_f=10, max_f=2000, n_bins=4)
    assert pruned["x"] == ["a", "e", "h"]  # bins 0, 2, 3 in coarse-first order
    assert pruned["y"] == ["c"]


def test_prune_ignores_out_of_window_tags():
    freqs = {"fresh": 5, "good": 50}
    items = {"x": ["fresh", "good"]}
    pruned = prune_frequency_bins(_table(freqs, items), min_f=10, max_f=2000,
                                  n_bins=1)
    assert pruned["x"] == ["good"]


def test_frequency_bins_requires_eligible_tags():
    with pytest.raises(FreeformError):
        frequency_bins(_table({"a": 1}), min_f=10, max_f=2000)
    with pytest.raises(FreeformError):
        frequency_bins(_table({"a": 50}), min_f=100, max_f=10)


def test_pruned_semid_rows_layout():
    rows = pruned_to_semid_rows({"b": ["t1", "t2"], "a": ["t2"]})
    assert [r["item_id"] for r in rows] == ["a", "b"]
    assert rows[0]["tokens"] == [0]
    assert rows[1]["tokens"] == [1, 0]
    assert rows[1]["path_names"] == ["t1", "t2"]


def test_utilization_reference_ratio():
    # 90 used tags of which 21 are reused: the explosion regime ratio.
    freqs = {f"once{i}": 1 for i in range(69)}
    freqs.update({f"twice{i}": 2 for i in range(21)})
    assert tag_utilization(_table(freqs)) == pytest.approx(21 / 90, abs=1e-9)


def test_freeform_table_round_trip(tmp_path, small_world):
    table = generate_freeform(small_world.corpus, make_gateway(small_world))
    path = tmp_path / "tags.jsonl"
    table.save(path)
    loaded = FreeformTagTable.load(path)
    assert loaded.tags_by_item == table.tags_by_item
    assert loaded.frequency == table.frequency
