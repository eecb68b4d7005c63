"""``assign`` reuses the build's per-node annotations: at a node where the
build's annotators matched an item to exactly one child, the descent takes
that child without a call; everywhere else it asks, as a full descent does."""

from __future__ import annotations

import pytest

from tagforge import prompts
from tagforge.assignment import assign_paths
from tagforge.builder import build_vocabulary
from tagforge.gateway import AgentRole, Gateway
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import make_world
from tagforge.vocab import BuildConfig

from conftest import make_gateway


class PromptLog:
    """Wraps a backend and keeps every prompt it answers."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts: list[str] = []

    def generate(self, prompt):
        self.prompts.append(prompt)
        return self.inner.generate(prompt)


def logged_gateway(world, **backend_kwargs) -> tuple[Gateway, PromptLog]:
    log = PromptLog(MockLLMBackend(world.taxonomy, seed=0, **backend_kwargs))
    return Gateway({AgentRole.ARCHITECT: log, AgentRole.ANNOTATOR: log}), log


def assign_calls(gateway: Gateway) -> int:
    return gateway.ledger.calls(AgentRole.ANNOTATOR, prompts.ASSIGN_ITEM)


def paths_of(records) -> list[tuple]:
    return [(r.item_id, r.path, r.flag, r.terminated) for r in records]


def accuracy(records, tree, world) -> float:
    names = {rid: node.name for rid, node in tree.nodes.items()}
    hits = sum(tuple(names[r] for r in rec.path) == world.true_path[rec.item_id]
               for rec in records)
    return hits / len(records)


@pytest.fixture(scope="module")
def demo_build(provider):
    """The quickstart's demo world and build settings."""
    world = make_world(branching=(4, 4, 4), n_items=2000, seed=7)
    state = build_vocabulary(world.corpus, BuildConfig(d_max=3, tau_split=30),
                             make_gateway(world), provider)
    return world, state


def test_demo_assign_issues_no_call_after_build(demo_build):
    world, state = demo_build
    assert len(state.annotations) == 21  # root, 4 level-1, 16 level-2 nodes
    reusing = make_gateway(world)
    reused = assign_paths(world.corpus, state.tree, reusing,
                          annotations=state.annotations)
    assert assign_calls(reusing) == 0
    asking = make_gateway(world)
    asked = assign_paths(world.corpus, state.tree, asking)
    assert assign_calls(asking) == 3 * len(world.corpus)
    assert paths_of(reused) == paths_of(asked)


def test_false_negatives_still_ask_and_keep_accuracy(provider):
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    rate = 0.1
    state = build_vocabulary(world.corpus, BuildConfig(d_max=2, tau_split=20),
                             make_gateway(world, false_negative_rate=rate),
                             provider)
    tree, annotations = state.tree, state.annotations
    reusing, log = logged_gateway(world, false_negative_rate=rate)
    reused = assign_paths(world.corpus, tree, reusing, annotations=annotations)
    asking = make_gateway(world, seed=0, false_negative_rate=rate)
    asked = assign_paths(world.corpus, tree, asking)

    # Every node the descent visits where the build did not match the item
    # to exactly one child gets a call there.
    expected = 0
    unsure_items = set()
    for rec in reused:
        visited = [tree.root_id, *rec.path]
        for node in visited:
            if not tree.children_of(node):
                break
            if len(annotations.get(node, {}).get(rec.item_id, [])) != 1:
                expected += 1
                unsure_items.add(rec.item_id)
    assert unsure_items, "the false-negative rate left no item unmatched"
    assert assign_calls(reusing) == expected
    for item_id in unsure_items:
        assert any(f"[{item_id}]" in prompt for prompt in log.prompts)
    assert assign_calls(reusing) < assign_calls(asking)
    assert accuracy(reused, tree, world) >= accuracy(asked, tree, world)
    assert paths_of(reused) == paths_of(asked)


def test_several_or_no_matches_ask_at_that_node_only(small_build):
    world, state = small_build
    tree = state.tree
    root = tree.root_id
    level1 = [n.rule_id for n in tree.children_of(root)]
    annotations = {node: dict(matched) for node, matched in state.annotations.items()}
    several, none, sure = sorted(annotations[root])[:3]
    annotations[root][several] = level1[:2]
    del annotations[root][none]

    gateway, log = logged_gateway(world)
    records = assign_paths(world.corpus, tree, gateway, annotations=annotations)
    asked_about = [item for item in (several, none, sure)
                   for prompt in log.prompts if f"[{item}]" in prompt]
    # One call each, at the root; below it the build's single match stands.
    assert asked_about == [several, none]
    assert assign_calls(gateway) == 2
    full = assign_paths(world.corpus, tree, make_gateway(world))
    assert paths_of(records) == paths_of(full)


def test_stale_outcome_is_not_reused(provider):
    # With c_max = 1 the review adds the hidden category after the only
    # annotation round, so that round's answers do not cover it.
    world = make_world(branching=(3, 3), n_items=270, seed=5)
    hidden = world.taxonomy.level1[0]
    config = BuildConfig(d_max=2, tau_split=20, c_max=1)
    state = build_vocabulary(world.corpus, config,
                             make_gateway(world, hidden=[hidden]), provider)
    tree = state.tree
    recovered = next(n for n in tree.children_of(tree.root_id) if n.name == hidden)
    assert recovered.items == set()
    assert tree.root_id not in state.annotations
    assert set(state.annotations) == {n.rule_id for n in tree.children_of(tree.root_id)
                                      if n is not recovered}

    gateway, log = logged_gateway(world, hidden_categories=frozenset([hidden]))
    records = assign_paths(world.corpus, tree, gateway,
                           annotations=state.annotations)
    root_prompts = [p for p in log.prompts if f"- {recovered.rule_id} ::" in p]
    assert len(root_prompts) == assign_calls(gateway) == len(world.corpus)
    full = assign_paths(world.corpus, tree,
                        make_gateway(world, hidden=[hidden]))
    assert paths_of(records) == paths_of(full)
