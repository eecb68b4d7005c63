from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest

from tagforge import prompts
from tagforge.builder import (BuildInterrupted, branch_items, build_vocabulary,
                              load_checkpoint, save_checkpoint)
from tagforge.gateway import AgentRole
from tagforge.planted import make_world
from tagforge.runs import read_json, read_jsonl
from tagforge.vocab import (STATUS_OUTLIERS_RECORDED, BuildConfig, VocabularyTree,
                            log_from_json)

from conftest import make_gateway


def test_small_corpus_below_threshold_builds_root_only(provider):
    world = make_world(branching=(2,), n_items=10, seed=1)
    gateway = make_gateway(world)
    config = BuildConfig(tau_split=30)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    assert len(state.tree.nodes) == 1
    assert gateway.ledger.calls(AgentRole.ARCHITECT) == 0
    assert gateway.ledger.calls() == 0


def test_planted_recovery_two_levels(small_world, provider):
    gateway = make_gateway(small_world)
    config = BuildConfig(d_max=2, tau_split=20)
    state = build_vocabulary(small_world.corpus, config, gateway, provider)
    tree = state.tree
    assert tree.max_depth() == 2
    assert len(tree.level_nodes(1)) == 3
    assert len(tree.level_nodes(2)) == 9
    # Item-majority leaf matching: every leaf's items share one true leaf.
    for leaf in tree.level_nodes(2):
        true_leaves = {small_world.true_path[i][-1] for i in leaf.items}
        assert true_leaves == {leaf.name}
    # Loading re-adds every node through add_child's checks.
    items = {rid: node.items for rid, node in tree.nodes.items()}
    assert set(VocabularyTree.from_json(tree.to_json(), items).nodes) == set(tree.nodes)


def test_no_children_below_split_threshold(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    gateway = make_gateway(world)
    # Level-1 nodes hold ~90 items; with tau_split=100 they must stay leaves.
    config = BuildConfig(d_max=3, tau_split=100)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    assert state.tree.max_depth() == 1
    for node in state.tree.nodes.values():
        if len(node.items) < config.tau_split:
            assert state.tree.children[node.rule_id] == []


def test_depth_capped_at_d_max(small_world, provider):
    gateway = make_gateway(small_world)
    config = BuildConfig(d_max=1, tau_split=20)
    state = build_vocabulary(small_world.corpus, config, gateway, provider)
    assert state.tree.max_depth() == 1


def test_branching_one_call_budget_bound(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    gateway = make_gateway(world)
    config = BuildConfig(d_max=2, tau_split=100, branching_factor=1, c_max=3)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    n = len(world.corpus)
    assign_calls = gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM)
    assert assign_calls <= config.c_max * n * config.d_max
    refined = len(state.report.nodes_refined)
    assert gateway.ledger.calls(AgentRole.ARCHITECT) <= refined * (1 + config.c_max)


def test_branching_one_items_descend_single_path(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    gateway = make_gateway(world)
    config = BuildConfig(d_max=2, tau_split=20, branching_factor=1)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    tree = state.tree
    for node in tree.nodes.values():
        children = tree.children_of(node.rule_id)
        if not children:
            continue
        for item_id in node.items:
            holders = [c for c in children if item_id in c.items]
            assert len(holders) <= 1


def test_branch_items_single_association_ignores_b():
    assignments = {"i1": ["rule_00000001"]}
    for b in (0, 1, 5):
        routed = branch_items(assignments, b, seed=3)
        assert routed == {"rule_00000001": {"i1"}}


def test_branch_items_deterministic_under_seed():
    assignments = {f"i{k}": ["rule_000000aa", "rule_000000bb"] for k in range(20)}
    first = branch_items(assignments, 1, seed=11)
    second = branch_items(assignments, 1, seed=11)
    assert first == second
    third = branch_items(assignments, 1, seed=12)
    assert third != first  # a different seed reshuffles at least one item


def test_branch_items_unlimited_keeps_all():
    assignments = {"i1": ["rule_000000aa", "rule_000000bb"]}
    routed = branch_items(assignments, 0, seed=1)
    assert routed["rule_000000aa"] == {"i1"}
    assert routed["rule_000000bb"] == {"i1"}


def test_branch_items_seeded_binomial_balance():
    # 1000 items with two candidate children each: a fair split lands within
    # 3 sigma of 500 per child (sigma = sqrt(1000 * 0.25)).
    assignments = {f"i{k:04d}": ["rule_000000aa", "rule_000000bb"]
                   for k in range(1000)}
    routed = branch_items(assignments, 1, seed=7)
    sigma = math.sqrt(1000 * 0.25)
    for rule_id in ("rule_000000aa", "rule_000000bb"):
        assert abs(len(routed[rule_id]) - 500) <= 3 * sigma


def test_degenerate_single_child_flagged(provider):
    # A taxonomy with a single child under the root: the build keeps the
    # child and records the degenerate split.
    world = make_world(branching=(1,), n_items=60, seed=2)
    gateway = make_gateway(world)
    config = BuildConfig(d_max=1, tau_split=20)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    assert len(state.tree.level_nodes(1)) == 1
    assert state.report.degenerate_splits == [state.tree.root_id]


def test_checkpoint_round_trip(tmp_path, small_world, provider):
    gateway = make_gateway(small_world)
    config = BuildConfig(d_max=2, tau_split=20)
    state = build_vocabulary(small_world.corpus, config, gateway, provider)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.completed == state.completed
    assert json.dumps(loaded.tree.to_json(), sort_keys=True) == \
        json.dumps(state.tree.to_json(), sort_keys=True)
    for rid, node in state.tree.nodes.items():
        assert loaded.tree.nodes[rid].items == node.items


def test_interrupt_and_resume_no_duplicate_refinements(tmp_path, provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    config = BuildConfig(d_max=2, tau_split=20)

    full_gateway = make_gateway(world)
    full_state = build_vocabulary(world.corpus, config, full_gateway, provider)
    full_calls = full_gateway.ledger.calls()
    full_tree = json.dumps(full_state.tree.to_json(), sort_keys=True)

    ckpt = tmp_path / "ckpt.json"
    ledger_path = tmp_path / "ledger.jsonl"
    limited = make_gateway(world, max_calls=300, ledger_path=ledger_path)
    with pytest.raises(BuildInterrupted):
        build_vocabulary(world.corpus, config, limited, provider,
                         checkpoint_path=ckpt)
    state1 = load_checkpoint(ckpt)
    assert 0 < len(state1.completed) < len(full_state.completed)
    # The ledger file, saved with the checkpoint and before any close,
    # holds every call; the checkpoint holds no counters.
    assert sum(row["calls"] for row in read_jsonl(ledger_path)) == 300
    assert "ledger" not in read_json(ckpt)
    run1_nodes = list(state1.report.nodes_refined)

    resumed_gateway = make_gateway(world)
    state2 = build_vocabulary(world.corpus, config, resumed_gateway, provider,
                              checkpoint_path=ckpt, resume_state=state1)
    final_nodes = state2.report.nodes_refined
    assert len(final_nodes) == len(set(final_nodes))
    assert final_nodes[:len(run1_nodes)] == run1_nodes
    assert set(final_nodes) == set(full_state.report.nodes_refined)
    # The resumed run re-does at most the interrupted node, never finished ones.
    resumed_calls = resumed_gateway.ledger.calls()
    assert resumed_calls < full_calls
    assert json.dumps(state2.tree.to_json(), sort_keys=True) == full_tree


def test_refinement_failure_marks_node_and_continues(provider):
    # An architect that refuses on one specific sub-category keeps the build
    # alive: the failed node is reported, the rest completes.
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    victim = world.taxonomy.level1[0]

    class Saboteur:
        def __init__(self, inner):
            self.inner = inner

        def generate(self, prompt):
            if (f'parent category: "{victim}:' in prompt
                    or f'found in "{victim}:' in prompt):
                return "no json for you"
            return self.inner.generate(prompt)

    from tagforge.gateway import Gateway
    from tagforge.mockllm import MockLLMBackend

    backend = Saboteur(MockLLMBackend(world.taxonomy))
    gateway = Gateway({AgentRole.ARCHITECT: backend,
                       AgentRole.ANNOTATOR: backend})
    config = BuildConfig(d_max=2, tau_split=20)
    state = build_vocabulary(world.corpus, config, gateway, provider)
    assert len(state.report.nodes_failed) == 1
    failed = state.report.nodes_failed[0]
    assert state.tree.nodes[failed].name == victim
    assert state.tree.children[failed] == []
    # The two healthy siblings still got their sub-categories.
    assert len(state.tree.level_nodes(2)) == 6


def test_outliers_a_review_sets_aside_are_logged(provider):
    # One level-1 topic hidden from the first proposal and 15% of matches
    # dropped: reviews run and approve IGNORE_AS_OUTLIERS proposals.
    world = make_world(branching=(2, 2, 2), n_items=260, seed=7)
    gateway = make_gateway(world, seed=7, false_negative_rate=0.15,
                           hidden=[world.taxonomy.level1[0]])
    state = build_vocabulary(world.corpus, BuildConfig(d_max=3, tau_split=20, seed=7),
                             gateway, provider)
    assert gateway.ledger.calls(AgentRole.ARCHITECT, prompts.ARCHITECT_REVIEW) == 3
    logs = {log.rule_id: log for log in state.logs}
    flagged = [node for node in state.tree.nodes.values()
               if node.status == STATUS_OUTLIERS_RECORDED]
    assert flagged
    for node in flagged:
        outliers = logs[node.rule_id].outlier_items
        assert outliers and outliers == sorted(outliers)
        assert set(outliers) <= node.items
    for log in state.logs:
        assert log_from_json(json.loads(json.dumps(asdict(log)))) == log
