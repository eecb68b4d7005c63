from __future__ import annotations

import json
import random

import pytest

from tagforge import prompts, wire
from tagforge.assignment import (AssignmentError, AssignmentRecord, SPECIALS,
                                 assign_paths, export_semids,
                                 resolve_collisions, vocab_stats)
from tagforge.corpus import Corpus, Item
from tagforge.gateway import AgentRole, BudgetExhaustedError, Gateway
from tagforge.mockllm import MockLLMBackend
from tagforge.vocab import VocabularyTree, make_rule_id

from conftest import failing_items_gateway, make_gateway
from oracles import decode_semids


def test_assign_paths_recovers_true_paths(small_semids):
    world, tree, records, _ = small_semids
    names = {rid: n.name for rid, n in tree.nodes.items()}
    for rec in records:
        assert tuple(names[r] for r in rec.path) == world.true_path[rec.item_id]
        assert rec.flag is None
        assert not rec.terminated


def test_assign_paths_alien_item_gets_flagged(small_build):
    world, state = small_build
    alien = Item(item_id="zzz-alien", title="mystery",
                 body="completely unrelated gibberish widget")
    corpus = Corpus(list(world.corpus)[:5] + [alien])
    gateway = make_gateway(world)
    records = assign_paths(corpus, state.tree, gateway)
    by_id = {r.item_id: r for r in records}
    assert by_id["zzz-alien"].path == ()
    assert by_id["zzz-alien"].flag == "no-path"
    assert sum(1 for r in records if r.flag) == 1


def test_assign_paths_call_count_bounded_by_depth(small_build):
    world, state = small_build
    corpus = Corpus(list(world.corpus)[:30])
    gateway = make_gateway(world)
    before = gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM)
    assign_paths(corpus, state.tree, gateway)
    delta = gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM) - before
    depth = state.tree.max_depth()
    assert delta <= depth * len(corpus)
    assert delta == 2 * len(corpus)  # clean planted items descend both levels


def _counting(fn, calls: list):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("n_items", [6, 270])
def test_assign_paths_renders_each_rule_list_once_per_batch(small_build,
                                                           monkeypatch, n_items):
    world, state = small_build
    tree = state.tree
    corpus = Corpus(list(world.corpus)[:n_items])
    rendered, lines = [], []
    monkeypatch.setattr(wire, "rules_text", _counting(wire.rules_text, rendered))
    monkeypatch.setattr(wire, "rule_line", _counting(wire.rule_line, lines))
    assign_paths(corpus, tree, make_gateway(world), parallelism=4)
    internal = [rule_id for rule_id, children in tree.children.items() if children]
    assert len(rendered) == len(internal)
    assert len(lines) == len(tree.descriptor_nodes())


def test_assign_paths_per_item_failures_are_flagged(small_build):
    world, state = small_build
    corpus = Corpus(list(world.corpus)[:12])
    down, garbled = corpus.item_ids[3], corpus.item_ids[7]
    gateway = failing_items_gateway(world, down, garbled)
    records = assign_paths(corpus, state.tree, gateway, parallelism=4)
    assert [r.item_id for r in records] == sorted(corpus.item_ids)
    by_id = {r.item_id: r for r in records}
    assert (by_id[down].path, by_id[down].flag, by_id[down].terminated) == \
        ((), "transport: annotator/AssignItem: HTTP 503", True)
    assert (by_id[garbled].path, by_id[garbled].flag) == \
        ((), "truncated: unparseable choice")
    assert all(r.flag is None and len(r.path) == 2 for r in records
               if r.item_id not in (down, garbled))


class ChoiceBackend:
    """Wraps a backend; a prompt that holds every one of ``markers`` is
    answered with ``choice`` as the best rule."""

    def __init__(self, inner, markers, choice):
        self.inner, self.markers, self.choice = inner, markers, choice

    def generate(self, prompt):
        if all(marker in prompt for marker in self.markers):
            return json.dumps({"best_rule_id": self.choice})
        return self.inner.generate(prompt)


def test_assign_paths_flags_a_choice_that_is_not_a_child(small_build):
    world, state = small_build
    tree = state.tree
    corpus = Corpus(list(world.corpus)[:6])
    target = corpus.item_ids[2]
    clean = {r.item_id: r for r in assign_paths(corpus, tree, make_gateway(world))}
    first, second = clean[target].path
    # At the level-1 node, the annotator names one of its siblings: a rule
    # of the tree, but not a child of the node being descended.
    sibling = next(n.rule_id for n in tree.children_of(tree.root_id)
                   if n.rule_id != first)
    backend = ChoiceBackend(MockLLMBackend(world.taxonomy, seed=0),
                            (f"[{target}]", f"- {second} ::"), sibling)
    gateway = Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend})
    records = {r.item_id: r for r in assign_paths(corpus, tree, gateway,
                                                   parallelism=2)}
    rec = records.pop(target)
    assert (rec.path, rec.flag, rec.terminated) == \
        ((first,), "truncated: unknown rule id", True)
    assert records == {i: r for i, r in clean.items() if i != target}


def test_assign_paths_budget_raises_after_exact_budget(small_build):
    world, state = small_build
    corpus = Corpus(list(world.corpus)[:30])
    gateway = make_gateway(world, max_calls=25)
    with pytest.raises(BudgetExhaustedError):
        assign_paths(corpus, state.tree, gateway, parallelism=4)
    assert gateway.ledger.calls() == 25


def test_resolver_all_distinct_paths():
    records = [AssignmentRecord(item_id=f"i{k}", path=(f"rule_0000000{k}",))
               for k in range(3)]
    resolved = resolve_collisions(records)
    assert [r.resolver for r in resolved] == [0, 0, 0]


def test_resolver_ranks_by_item_id():
    shared = ("rule_00000001", "rule_00000002")
    records = [AssignmentRecord(item_id=i, path=shared) for i in ("c", "a", "b")]
    resolved = resolve_collisions(records)
    assert [(r.item_id, r.resolver) for r in resolved] == \
        [("a", 0), ("b", 1), ("c", 2)]


def test_vocab_size_label_base_plus_resolvers(small_semids):
    _, tree, records, _ = small_semids
    stats = vocab_stats(records, tree)
    base, resolvers = stats.vocab_size_label.split("+")
    assert int(base) == len(tree.descriptor_nodes()) == 12
    assert int(resolvers) == stats.n_resolvers
    assert stats.n_resolvers >= 1


def _two_item_tree():
    tree = VocabularyTree(root_items={"a", "b"})
    from tagforge.vocab import DescriptorNode

    layout = {"a": ("top-a", "leaf-a"), "b": ("top-b", "leaf-b")}
    records = []
    for item_id, (top, leaf) in layout.items():
        top_id = tree.fresh_rule_id(tree.root_id, top)
        tree.add_child(tree.root_id, DescriptorNode(
            rule_id=top_id, name=top, description=f"{top}: INCLUDES: x. EXCLUDES: y.",
            parent=tree.root_id, depth=1, items={item_id}))
        leaf_id = tree.fresh_rule_id(top_id, leaf)
        tree.add_child(top_id, DescriptorNode(
            rule_id=leaf_id, name=leaf, description=f"{leaf}: INCLUDES: x. EXCLUDES: y.",
            parent=top_id, depth=2, items={item_id}))
        records.append(AssignmentRecord(item_id=item_id, path=(top_id, leaf_id)))
    return tree, resolve_collisions(records)


def test_export_semids_disjoint_paths_share_resolver_zero():
    tree, records = _two_item_tree()
    table = export_semids(records, tree)
    assert len(table.token_map) == len(SPECIALS) + 4 + 1  # 4 descriptors, 1 resolver
    eos = table.special_tokens["special:<eos>"]
    resolver_tokens = {t for t, name in table.token_map.items()
                       if name.startswith("resolver:")}
    assert len(resolver_tokens) == 1
    for row in table.rows:
        assert len(row.tokens) == 4  # two descriptors, resolver, EOS
        assert row.tokens[-1] == eos
        assert row.tokens[-2] in resolver_tokens


def test_export_semids_round_trip(small_semids):
    _, tree, records, table = small_semids
    decoded = decode_semids(table)
    original = {(r.item_id, r.path, r.resolver) for r in records}
    assert {(r.item_id, r.path, r.resolver) for r in decoded} == original


def test_token_vocab_size_matches_stats(small_semids):
    _, tree, records, table = small_semids
    stats = vocab_stats(records, tree)
    assert len(table.token_map) == (len(tree.descriptor_nodes())
                                    + stats.n_resolvers + len(SPECIALS))


def test_export_semids_requires_resolvers():
    tree, records = _two_item_tree()
    records[0].resolver = None
    with pytest.raises(AssignmentError, match="unresolved"):
        export_semids(records, tree)


def test_vocab_stats_full_reuse_is_one(small_semids):
    world, tree, records, _ = small_semids
    stats = vocab_stats(records, tree)
    # Every planted leaf group holds >= 2 items, so every used descriptor is
    # reused and utilization is exactly 1.0.
    assert stats.utilization == 1.0
    assert stats.n_descriptors_used == 12
    assert stats.per_level_cardinality == {1: 3, 2: 9}


def test_vocab_stats_counts_exact():
    tree, records = _two_item_tree()
    stats = vocab_stats(records, tree)
    assert stats.utilization == 0.0  # each descriptor used once
    assert stats.items_per_descriptor == {1: 4}
    assert stats.n_resolvers == 1


def test_collision_bijection_randomized_property():
    # >= 1000 items over a tiny path space forces heavy collisions; after
    # resolution (path, resolver) -> item must be a bijection.
    rng = random.Random(77)
    paths = [(make_rule_id("p", str(a)), make_rule_id("c", str(a), str(b)))
             for a in range(3) for b in range(2)]
    records = [AssignmentRecord(item_id=f"item{k:05d}",
                                path=paths[rng.randrange(len(paths))])
               for k in range(1200)]
    resolved = resolve_collisions(records)
    keys = {(r.path, r.resolver) for r in resolved}
    assert len(keys) == 1200
    # Resolver ranks are dense per path group, starting at 0.
    groups: dict[tuple, list[int]] = {}
    for r in resolved:
        groups.setdefault(r.path, []).append(r.resolver)
    for ranks in groups.values():
        assert sorted(ranks) == list(range(len(ranks)))
