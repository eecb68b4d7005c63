from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from tagforge import prompts
from tagforge.gateway import (AgentRole, BackendRefusalError,
                              BudgetExhaustedError, Gateway)
from tagforge.mockllm import MockLLMBackend, category_description
from tagforge.planted import make_world
from tagforge.protocol import (APPROVED, CREATE_NEW_CATEGORY,
                               EXPAND_EXISTING_CATEGORY, IGNORE_AS_OUTLIERS,
                               REJECTED, ChangeProposal)
from tagforge.refinement import (RefinementError, init_vocabulary,
                                 parallel_assign, propose_changes, refine,
                                 review_and_apply)
from tagforge.vocab import BuildConfig, DescriptorNode, VocabularyTree

from conftest import FaultBackend, failing_items_gateway, make_gateway


class RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.prompts: list[str] = []

    def generate(self, prompt):
        self.prompts.append(prompt)
        return self.inner.generate(prompt)


def fresh_tree(world) -> VocabularyTree:
    return VocabularyTree(root_items=set(world.corpus.item_ids))


def level1_nodes(world, tree, names=None) -> list[DescriptorNode]:
    nodes = []
    for name in (names or world.taxonomy.level1):
        nodes.append(DescriptorNode(
            rule_id=tree.fresh_rule_id(tree.root_id, name), name=name,
            description=category_description(name), parent=tree.root_id,
            depth=1))
    return nodes


def test_init_vocabulary_recovers_planted_children(small_world, provider):
    tree = fresh_tree(small_world)
    gateway = make_gateway(small_world)
    config = BuildConfig()
    items = [small_world.corpus.get(i) for i in sorted(tree.root.items)]
    children, notes = init_vocabulary(items, tree.root, tree, config,
                                      gateway, provider)
    assert {c.name for c in children} == set(small_world.taxonomy.level1)
    assert notes == []
    assert all(c.depth == 1 for c in children)
    assert gateway.ledger.calls(AgentRole.ARCHITECT, prompts.ARCHITECT_INIT) == 1


def test_init_prompt_carries_default_target_rule_count(small_world, provider):
    backend = RecordingBackend(MockLLMBackend(small_world.taxonomy))
    gateway = Gateway({AgentRole.ARCHITECT: backend,
                       AgentRole.ANNOTATOR: backend})
    tree = fresh_tree(small_world)
    items = [small_world.corpus.get(i) for i in sorted(tree.root.items)]
    init_vocabulary(items, tree.root, tree, BuildConfig(), gateway, provider)
    assert "~15 mutually exclusive sub-categories" in backend.prompts[0]


def test_init_deduplicates_category_names(small_world, provider):
    class DupBackend:
        def generate(self, prompt):
            return json.dumps({"categories": [
                {"name": "Gear", "description": "Gear: INCLUDES: a. EXCLUDES: b."},
                {"name": "gear", "description": "gear: INCLUDES: c. EXCLUDES: d."},
                {"name": "Other", "description": "Other: INCLUDES: e. EXCLUDES: f."},
            ]})

    gateway = Gateway({AgentRole.ARCHITECT: DupBackend(),
                       AgentRole.ANNOTATOR: DupBackend()})
    tree = fresh_tree(small_world)
    items = [small_world.corpus.get(i) for i in sorted(tree.root.items)][:40]
    children, notes = init_vocabulary(items, tree.root, tree, BuildConfig(),
                                      gateway, provider)
    assert [c.name for c in children] == ["Gear", "Other"]
    assert any("duplicate" in n for n in notes)


def test_parallel_assign_full_vocabulary_covers_everything(small_world):
    tree = fresh_tree(small_world)
    rules = level1_nodes(small_world, tree)
    gateway = make_gateway(small_world)
    items = list(small_world.corpus)
    outcome = parallel_assign(items, rules, gateway, parallelism=8)
    assert outcome.unassigned == set()
    assert outcome.coverage == 1.0
    by_name = {r.rule_id: r.name for r in rules}
    for item_id, matched in outcome.assigned.items():
        assert [by_name[m] for m in matched] == \
            [small_world.true_path[item_id][0]]


def test_parallel_assign_missing_category_yields_reports():
    # Flat 3-way taxonomy, 150 items: exactly 50 per category.
    world = make_world(branching=(3,), n_items=150, seed=5)
    tree = fresh_tree(world)
    present = [world.taxonomy.level1[0], world.taxonomy.level1[2]]
    missing = world.taxonomy.level1[1]
    rules = level1_nodes(world, tree, names=present)
    gateway = make_gateway(world)
    outcome = parallel_assign(list(world.corpus), rules, gateway)
    expect = {i for i, p in world.true_path.items() if p[0] == missing}
    assert len(expect) == 50
    assert outcome.unassigned == expect
    assert len(outcome.reports) == 50
    assert all(missing in r.report_text for r in outcome.reports)


def test_parallel_assign_ledger_counts_items(small_world):
    tree = fresh_tree(small_world)
    rules = level1_nodes(small_world, tree)
    gateway = make_gateway(small_world)
    items = list(small_world.corpus)[:200]
    before = gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM)
    parallel_assign(items, rules, gateway, parallelism=4)
    after = gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM)
    assert after - before == 200


def test_parallel_assign_per_item_failures_become_reports():
    world = make_world(branching=(3,), n_items=30, seed=5)
    tree = fresh_tree(world)
    rules = level1_nodes(world, tree)
    items = list(world.corpus)
    down, garbled = items[3].item_id, items[7].item_id
    gateway = failing_items_gateway(world, down, garbled)
    outcome = parallel_assign(items, rules, gateway, parallelism=4)
    assert set(outcome.assigned) == {i.item_id for i in items} - {down, garbled}
    assert outcome.unassigned == {down, garbled}
    assert {r.item_id: r.report_text for r in outcome.reports} == {
        down: "transport failure: annotator/AssignItem: HTTP 503",
        garbled: "unparseable annotation: annotator/AssignItem: unparseable "
                 "after 2 re-asks: no JSON object or array found in response",
    }


def test_parallel_assign_budget_raises_after_exact_budget():
    world = make_world(branching=(3,), n_items=30, seed=5)
    tree = fresh_tree(world)
    rules = level1_nodes(world, tree)
    gateway = make_gateway(world, max_calls=11)
    with pytest.raises(BudgetExhaustedError):
        parallel_assign(list(world.corpus), rules, gateway, parallelism=4)
    assert gateway.ledger.calls() == 11


def test_propose_changes_single_missing_category(provider):
    world = make_world(branching=(3,), n_items=150, seed=5)
    tree = fresh_tree(world)
    present = [world.taxonomy.level1[0], world.taxonomy.level1[2]]
    missing = world.taxonomy.level1[1]
    rules = level1_nodes(world, tree, names=present)
    gateway = make_gateway(world)
    outcome = parallel_assign(list(world.corpus), rules, gateway)
    items_by_id = {it.item_id: it for it in world.corpus}
    proposals, proposal_items, notes = propose_changes(
        outcome.reports, rules, items_by_id, tree.root, 1, BuildConfig(),
        gateway, provider)
    assert len(proposals) == 1
    assert proposals[0].change_type == CREATE_NEW_CATEGORY
    assert missing in proposals[0].change["new_rule_description"]
    assert len(proposal_items[proposals[0].proposal_id]) == 50
    assert notes == []


def test_propose_changes_refusal_skips_the_proposal(provider):
    world = make_world(branching=(3,), n_items=150, seed=5)
    tree = fresh_tree(world)
    rules = level1_nodes(world, tree, names=world.taxonomy.level1[:2])
    backend = FaultBackend(MockLLMBackend(world.taxonomy),
                           "taxonomy quality control", BackendRefusalError)
    gateway = Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend})
    outcome = parallel_assign(list(world.corpus), rules, gateway)
    items_by_id = {it.item_id: it for it in world.corpus}
    proposals, proposal_items, notes = propose_changes(
        outcome.reports, rules, items_by_id, tree.root, 1, BuildConfig(),
        gateway, provider)
    assert proposals == [] and proposal_items == {}
    assert notes == ["ticket cluster 0: proposal skipped "
                     "(HTTP 400: request refused)"]


def test_propose_changes_two_missing_categories(provider):
    world = make_world(branching=(3,), n_items=150, seed=5)
    tree = fresh_tree(world)
    present = [world.taxonomy.level1[0]]
    missing = set(world.taxonomy.level1[1:])
    rules = level1_nodes(world, tree, names=present)
    gateway = make_gateway(world)
    outcome = parallel_assign(list(world.corpus), rules, gateway)
    items_by_id = {it.item_id: it for it in world.corpus}
    proposals, _, _ = propose_changes(outcome.reports, rules, items_by_id,
                                      tree.root, 1, BuildConfig(), gateway,
                                      provider)
    assert 1 <= len(proposals) <= 2
    proposed = {p.change["new_rule_description"].split(":")[0] for p in proposals}
    assert proposed <= missing
    assert len(proposed) == len(proposals)


def test_propose_changes_clusters_more_texts_than_its_batch(provider):
    # Seven missing categories give seven distinct report texts, more than
    # proposal_batch (5), so the texts are embedded and clustered into
    # tickets.
    world = make_world(branching=(8,), n_items=400, seed=5)
    tree = fresh_tree(world)
    present = world.taxonomy.level1[0]
    missing = set(world.taxonomy.level1[1:])
    rules = level1_nodes(world, tree, names=[present])
    config = BuildConfig()
    outcome = parallel_assign(list(world.corpus), rules, make_gateway(world))
    assert len({r.report_text for r in outcome.reports}) > config.proposal_batch
    items_by_id = {it.item_id: it for it in world.corpus}

    def propose():
        return propose_changes(outcome.reports, rules, items_by_id, tree.root,
                               1, config, make_gateway(world), provider)

    proposals, proposal_items, notes = propose()
    assert len(proposals) == config.proposal_batch and notes == []
    grouped = sorted(i for items in proposal_items.values() for i in items)
    assert grouped == sorted(r.item_id for r in outcome.reports)
    assert len(grouped) == 350
    proposed = {p.change["new_rule_description"].split(":")[0] for p in proposals}
    assert proposed <= missing and len(proposed) == len(proposals)
    again, again_items, _ = propose()
    assert [p.to_json() for p in again] == [p.to_json() for p in proposals]
    assert again_items == proposal_items


def test_review_and_apply_create_adds_node(small_world):
    tree = fresh_tree(small_world)
    children = level1_nodes(small_world, tree,
                            names=[small_world.taxonomy.level1[0]])
    gateway = make_gateway(small_world)
    proposal = ChangeProposal(
        proposal_id="prop_00000001", change_type=CREATE_NEW_CATEGORY,
        problem_summary="gap",
        change={"new_rule_description": "Order Book Analysis: INCLUDES: depth "
                                        "charts. EXCLUDES: price history."})
    before = len(children)
    decisions, notes, outliers, flagged = review_and_apply(
        [proposal], tree.root, children, tree, {}, gateway)
    assert len(children) == before + 1
    assert children[-1].name == "Order Book Analysis"
    assert decisions[0].decision == APPROVED
    assert not flagged and outliers == set()


def test_review_and_apply_expand_appendix_example(small_world):
    tree = fresh_tree(small_world)
    target = DescriptorNode(
        rule_id="rule_a4368cef", name="Outdoor Gear",
        description="Outdoor Gear: INCLUDES: tents. EXCLUDES: optics.",
        parent=tree.root_id, depth=1)
    children = [target]
    gateway = make_gateway(small_world)
    refined = ("Outdoor & Tactical Gear: INCLUDES: Tents, backpacks, sleeping "
               "bags, and tactical accessories like gloves, belts, and pouches. "
               "EXCLUDES: Specialized sporting equipment, firearms, and knives.")
    proposal = ChangeProposal(
        proposal_id="prop_00000002", change_type=EXPAND_EXISTING_CATEGORY,
        problem_summary="too generic",
        change={"rule_id_to_refine": "rule_a4368cef", "refined_description": refined})
    review_and_apply([proposal], tree.root, children, tree, {}, gateway)
    assert target.name == "Outdoor & Tactical Gear"
    assert target.description == refined


def test_review_and_apply_unknown_rule_auto_rejected(small_world):
    tree = fresh_tree(small_world)
    children = level1_nodes(small_world, tree)
    gateway = make_gateway(small_world)
    proposal = ChangeProposal(
        proposal_id="prop_00000003", change_type=EXPAND_EXISTING_CATEGORY,
        problem_summary="s",
        change={"rule_id_to_refine": "rule_ffffffff",
                "refined_description": "X: INCLUDES: a. EXCLUDES: b."})
    decisions, notes, _, _ = review_and_apply([proposal], tree.root, children,
                                              tree, {}, gateway)
    assert decisions[0].decision == REJECTED
    assert "rule_ffffffff" in decisions[0].reasoning
    assert any("auto-rejected" in n for n in notes)


def test_review_parse_failure_rejects_all(small_world):
    class JunkReview:
        def __init__(self, inner):
            self.inner = inner

        def generate(self, prompt):
            if "senior taxonomy manager" in prompt:
                return "I refuse to answer in JSON."
            return self.inner.generate(prompt)

    backend = JunkReview(MockLLMBackend(small_world.taxonomy))
    gateway = Gateway({AgentRole.ARCHITECT: backend,
                       AgentRole.ANNOTATOR: backend})
    tree = fresh_tree(small_world)
    children = level1_nodes(small_world, tree)
    proposal = ChangeProposal(
        proposal_id="prop_00000004", change_type=IGNORE_AS_OUTLIERS,
        problem_summary="s", change={"reason": "noise"})
    decisions, notes, _, _ = review_and_apply([proposal], tree.root, children,
                                              tree, {}, gateway)
    assert [d.decision for d in decisions] == [REJECTED]
    assert any("rejecting all" in n for n in notes)


def test_review_refusal_rejects_all(small_world):
    backend = FaultBackend(MockLLMBackend(small_world.taxonomy),
                           "senior taxonomy manager", BackendRefusalError)
    gateway = Gateway({AgentRole.ARCHITECT: backend,
                       AgentRole.ANNOTATOR: backend})
    tree = fresh_tree(small_world)
    children = level1_nodes(small_world, tree)
    proposal = ChangeProposal(
        proposal_id="prop_00000005", change_type=CREATE_NEW_CATEGORY,
        problem_summary="gap",
        change={"new_rule_description": "Extra: INCLUDES: a. EXCLUDES: b."})
    decisions, notes, outliers, flagged = review_and_apply(
        [proposal], tree.root, children, tree, {}, gateway)
    assert [d.decision for d in decisions] == [REJECTED]
    assert len(children) == len(small_world.taxonomy.level1)
    assert not flagged and outliers == set()
    assert notes == ["review refused, rejecting all proposals: "
                     "HTTP 400: request refused"]


def test_refine_recovers_hidden_category(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    hidden = world.taxonomy.level1[0]
    gateway = make_gateway(world, hidden=[hidden])
    tree = fresh_tree(world)
    items = [world.corpus.get(i) for i in sorted(tree.root.items)]
    result = refine(items, tree.root, tree, BuildConfig(), gateway, provider)
    coverages = [c.coverage for c in result.log.cycles]
    assert len(coverages) == 2
    assert coverages[0] == pytest.approx(180 / 270)
    assert coverages[1] > coverages[0]
    assert coverages[1] >= 0.95
    assert {c.name for c in result.children} == set(world.taxonomy.level1)


def test_refine_stops_after_one_cycle_at_full_coverage(small_world, provider):
    gateway = make_gateway(small_world)
    tree = fresh_tree(small_world)
    items = [small_world.corpus.get(i) for i in sorted(tree.root.items)]
    result = refine(items, tree.root, tree, BuildConfig(), gateway, provider)
    assert len(result.log.cycles) == 1
    assert result.log.cycles[0].coverage >= 0.95
    assert result.log.cycles[0].proposals == []


def test_refine_caps_cycles_under_persistent_noise(provider):
    world = make_world(branching=(3,), n_items=240, seed=6)
    gateway = make_gateway(world, false_negative_rate=0.35)
    tree = fresh_tree(world)
    items = [world.corpus.get(i) for i in sorted(tree.root.items)]
    config = BuildConfig(c_max=3)
    result = refine(items, tree.root, tree, config, gateway, provider)
    assert len(result.log.cycles) == 3
    # Noise misses are deterministic per item, so coverage is flat.
    assert len({c.coverage for c in result.log.cycles}) == 1
    assert result.log.cycles[0].coverage < 0.95


def test_refine_breaks_below_error_report_floor(provider):
    # 3 groups of 19 items; hiding one leaves 19 reports, under the floor of
    # 20, so the loop breaks without proposing.
    world = make_world(branching=(3,), n_items=57, seed=6)
    hidden = world.taxonomy.level1[0]
    gateway = make_gateway(world, hidden=[hidden])
    tree = fresh_tree(world)
    items = [world.corpus.get(i) for i in sorted(tree.root.items)]
    config = BuildConfig(tau_split=10)
    result = refine(items, tree.root, tree, config, gateway, provider)
    assert len(result.log.cycles) == 1
    assert result.log.cycles[0].n_unassigned == 19
    assert gateway.ledger.calls(
        AgentRole.ANNOTATOR, prompts.ANNOTATOR_ERROR_FEEDBACK) == 0


def test_refine_vocabulary_never_shrinks(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    gateway = make_gateway(world, hidden=[world.taxonomy.level1[1]])
    tree = fresh_tree(world)
    items = [world.corpus.get(i) for i in sorted(tree.root.items)]
    result = refine(items, tree.root, tree, BuildConfig(), gateway, provider)
    sizes = [(c.vocab_before, c.vocab_after) for c in result.log.cycles]
    flat = [s for pair in sizes for s in pair]
    assert flat == sorted(flat)


def test_refine_log_is_byte_identical_across_runs(provider):
    def run():
        world = make_world(branching=(3, 3), n_items=270, seed=5)
        gateway = make_gateway(world, hidden=[world.taxonomy.level1[0]])
        tree = fresh_tree(world)
        items = [world.corpus.get(i) for i in sorted(tree.root.items)]
        result = refine(items, tree.root, tree, BuildConfig(parallelism=7),
                        gateway, provider)
        return json.dumps(asdict(result.log), sort_keys=True)

    assert run() == run()


def test_refine_empty_init_vocabulary_raises(provider):
    class EmptyBackend:
        def generate(self, prompt):
            return json.dumps({"categories": []})

    world = make_world(branching=(2,), n_items=60, seed=1)
    gateway = Gateway({AgentRole.ARCHITECT: EmptyBackend(),
                       AgentRole.ANNOTATOR: EmptyBackend()})
    tree = fresh_tree(world)
    items = [world.corpus.get(i) for i in sorted(tree.root.items)]
    with pytest.raises(RefinementError):
        refine(items, tree.root, tree, BuildConfig(), gateway, provider)
