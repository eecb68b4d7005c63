from __future__ import annotations

import pytest

from tagforge.freeform import (FreeformTagTable, generate_freeform,
                               tag_utilization)
from tagforge.gateway import BudgetExhaustedError
from tagforge.planted import make_world

from conftest import failing_items_gateway, make_gateway
from oracles import load_freeform_table


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


def test_utilization_reference_ratio():
    # 90 used tags of which 21 are reused: the explosion regime ratio.
    freqs = {f"once{i}": 1 for i in range(69)}
    freqs.update({f"twice{i}": 2 for i in range(21)})
    table = FreeformTagTable(tags_by_item={}, frequency=freqs)
    assert tag_utilization(table) == pytest.approx(21 / 90, abs=1e-9)


def test_freeform_table_round_trip(tmp_path, small_world):
    table = generate_freeform(small_world.corpus, make_gateway(small_world))
    path = tmp_path / "tags.jsonl"
    table.save(path)
    loaded = load_freeform_table(path)
    assert loaded.tags_by_item == table.tags_by_item
    assert loaded.frequency == table.frequency
