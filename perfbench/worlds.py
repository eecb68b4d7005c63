"""Input generation for the benchmark workloads (the timed part never runs here).

Every input is a pure function of the workload's sizes and the seed, written
as files: the program under test only ever sees those files. The Sports
vocabulary is written from the planted taxonomy (see README.md for why it is
not built).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from tagforge import assignment as asg
from tagforge import planted
from tagforge.corpus import last_out_split, write_corpus, write_interactions, write_splits
from tagforge.mockllm import category_description
from tagforge.vocab import BuildConfig, DescriptorNode, VocabularyTree


@dataclass(frozen=True)
class Sizes:
    """Input make-up of one workload."""

    branching: tuple[int, ...]
    items: int
    users: int
    requests: int  # user requests served after the stages (none on sports-assign)


# A request takes 1-5 ms, so a few hundred of them span about a second, too
# short to average out the measurement machine's speed swings; hence more
# requests on the demo, whose requests are cheap.
DEMO = Sizes(branching=(4, 4, 4), items=2000, users=500, requests=1500)
SPORTS_ASSIGN = Sizes(branching=(8, 8, 8), items=18357, users=35598, requests=0)
SPORTS_DECODE = Sizes(branching=(8, 8, 8), items=18357, users=35598, requests=500)

# Small worlds with the same shape, used by the benchmark's own tests.
TINY_DEMO = Sizes(branching=(2, 2, 2), items=260, users=60, requests=120)
TINY_SPORTS = Sizes(branching=(3, 3, 3), items=300, users=200, requests=40)

BUILD = {"d_max": 3, "tau_split": 30}
BEAM_WIDTH = 20


def run_config(data: Path, run_dir: Path, seed: int, parallelism: int,
               with_interactions: bool = True) -> dict:
    """The quickstart config, with ``parallelism`` pinned by the caller."""
    cfg = {
        "run_dir": str(run_dir),
        "backend": "mock",
        "seed": seed,
        "corpus_path": str(data / "corpus.jsonl"),
        "mock_world_path": str(data / "world.json"),
        "build": dict(BUILD),
        "beam_width": BEAM_WIDTH,
        "eval_mode": "full",
        "parallelism": parallelism,
    }
    if with_interactions:
        cfg["interactions_path"] = str(data / "interactions.jsonl")
    return cfg


def _world(sizes: Sizes, seed: int) -> tuple[planted.PlantedWorld, list]:
    """Planted world and interactions, exactly as ``python -m tagforge.planted``
    draws them (interaction seed = seed + 1)."""
    world = planted.make_world(branching=sizes.branching, n_items=sizes.items, seed=seed)
    return world, planted.make_interactions(world, n_users=sizes.users, seed=seed + 1)


def planted_vocabulary(world: planted.PlantedWorld, seed: int,
                       parallelism: int) -> VocabularyTree:
    """The planted taxonomy as a descriptor tree, through ``add_child``.

    Rule ids and descriptions are the ones ``build-vocab`` gives a category
    of that name under that parent on the mock backend.
    """
    members: dict[str, set[str]] = {}
    for item_id, path in world.true_path.items():
        for name in path:
            members.setdefault(name, set()).add(item_id)
    config = BuildConfig.from_json({"seed": seed, "parallelism": parallelism, **BUILD})
    tree = VocabularyTree(root_items=set(world.true_path), config=config.to_json())
    pending = [(planted.ROOT_NAME, tree.root_id)]
    while pending:
        name, rule_id = pending.pop()
        parent = tree.node(rule_id)
        for child in world.taxonomy.child_names(name):
            child_id = tree.fresh_rule_id(rule_id, child)
            tree.add_child(rule_id, DescriptorNode(
                rule_id=child_id, name=child, description=category_description(child),
                parent=rule_id, depth=parent.depth + 1,
                items=members.get(child, set())))
            pending.append((child, child_id))
    return tree


def make_demo(data: Path, sizes: Sizes, seed: int) -> dict:
    """Quickstart inputs: corpus, interactions and world of the demo."""
    data.mkdir(parents=True, exist_ok=True)
    world, interactions = _world(sizes, seed)
    write_corpus(world.corpus, data / "corpus.jsonl")
    write_interactions(interactions, data / "interactions.jsonl")
    planted.save_world(world, data / "world.json")
    return {"items": len(world.corpus), "users": sizes.users,
            "interactions": len(interactions), "branching": list(sizes.branching)}


def make_sports_assign(data: Path, sizes: Sizes, seed: int, parallelism: int) -> dict:
    """Sports-scale corpus, interactions, world and planted vocabulary."""
    data.mkdir(parents=True, exist_ok=True)
    world, interactions = _world(sizes, seed)
    write_corpus(world.corpus, data / "corpus.jsonl")
    write_interactions(interactions, data / "interactions.jsonl")
    planted.save_world(world, data / "world.json")
    planted_vocabulary(world, seed, parallelism).save(
        data / "vocab.json", data / "vocab_items.jsonl")
    return {"items": len(world.corpus), "users": sizes.users,
            "interactions": len(interactions), "branching": list(sizes.branching)}


def make_sports_decode(data: Path, sizes: Sizes, seed: int, parallelism: int) -> dict:
    """Sports-scale split, semantic IDs over the planted paths, the vocabulary
    and corpus the user simulator reads, and the seeded user sample."""
    data.mkdir(parents=True, exist_ok=True)
    world, interactions = _world(sizes, seed)
    split = last_out_split(interactions)
    tree = planted_vocabulary(world, seed, parallelism)
    # Planted node names are unique, so a name identifies its descriptor.
    rule_of = {n.name: n.rule_id for n in tree.descriptor_nodes()}
    records = [asg.AssignmentRecord(item_id=item_id,
                                    path=tuple(rule_of[name] for name in path))
               for item_id, path in sorted(world.true_path.items())]
    table = asg.export_semids(asg.resolve_collisions(records), tree)
    table.save(data / "semids.jsonl", data / "token_map.json")
    tree.save(data / "vocab.json")
    write_splits(split, data / "splits.jsonl")
    write_corpus(world.corpus, data / "corpus.jsonl")
    planted.save_world(world, data / "world.json")
    users = random.Random(seed).sample(sorted(split.test), sizes.requests)
    (data / "requests.json").write_text(json.dumps(sorted(users)), encoding="utf-8")
    return {"items": len(world.corpus), "users": sizes.users,
            "interactions": len(interactions), "requests": len(users),
            "branching": list(sizes.branching)}
