"""Synthetic planted worlds: a hidden taxonomy plus a corpus drawn from it.

Every generated item's text mentions, as whole tokens, the names of all
nodes on its true taxonomy path. The deterministic mock backend exploits
exactly that: a descriptor applies to an item iff the descriptor's name
occurs as a token of the item text. Worlds double as ground truth for
recovery and purity checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus, Interaction, Item, write_corpus, write_interactions
from .runs import read_json
from .vocab import ROOT_NAME

_SYLLABLES = ["ba", "ce", "di", "fo", "gu", "ha", "ki", "lo",
              "mu", "ne", "po", "ru", "sa", "te", "vi", "za"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


def _node_name(index: int) -> str:
    # Three-syllable names: unique whole tokens, 4096 available.
    a, rem = divmod(index, 256)
    b, c = divmod(rem, 16)
    return _SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c]


@dataclass
class PlantedTaxonomy:
    """Hidden ground-truth tree, rooted at the pseudo-node ROOT."""

    children: dict[str, list[str]] = field(default_factory=dict)
    parent: dict[str, str] = field(default_factory=dict)

    def child_names(self, name: str) -> list[str]:
        return self.children.get(name, [])

    def is_node(self, name: str) -> bool:
        return name == ROOT_NAME or name in self.parent

    @property
    def level1(self) -> list[str]:
        return self.children.get(ROOT_NAME, [])

    def leaf_paths(self) -> list[tuple[str, ...]]:
        paths: list[tuple[str, ...]] = []

        def walk(name: str, prefix: tuple[str, ...]) -> None:
            kids = self.children.get(name, [])
            if not kids:
                paths.append(prefix)
                return
            for kid in kids:
                walk(kid, prefix + (kid,))

        walk(ROOT_NAME, ())
        return paths

    def to_json(self) -> dict:
        return {"children": self.children}

    @classmethod
    def from_json(cls, payload: dict) -> "PlantedTaxonomy":
        tax = cls(children={k: list(v) for k, v in payload["children"].items()})
        for parent, kids in tax.children.items():
            for kid in kids:
                tax.parent[kid] = parent
        return tax


def build_taxonomy(branching: tuple[int, ...]) -> PlantedTaxonomy:
    """A complete tree with ``branching[d]`` children at each depth d."""
    names = map(_node_name, itertools.count())
    children: dict[str, list[str]] = {}
    frontier = [ROOT_NAME]
    for fanout in branching:
        for parent in frontier:
            children[parent] = [next(names) for _ in range(fanout)]
        frontier = [kid for parent in frontier for kid in children[parent]]
    return PlantedTaxonomy.from_json({"children": children})


@dataclass
class PlantedWorld:
    taxonomy: PlantedTaxonomy
    corpus: Corpus
    true_path: dict[str, tuple[str, ...]]

    def level1_of(self, item_id: str) -> str:
        return self.true_path[item_id][0]


def make_world(branching: tuple[int, ...] = (4, 4, 4), n_items: int = 2000,
               seed: int = 7, n_filler: int = 30) -> PlantedWorld:
    """Corpus of ``n_items`` spread round-robin over the taxonomy's leaves."""
    tax = build_taxonomy(branching)
    leaves = tax.leaf_paths()
    rng = random.Random(seed)
    fillers = [f"fill{k:02d}" for k in range(n_filler)]
    items: list[Item] = []
    true_path: dict[str, tuple[str, ...]] = {}
    for i in range(n_items):
        path = leaves[i % len(leaves)]
        item_id = f"item{i:05d}"
        extras_words = rng.sample(fillers, 3)
        body = f"{' '.join(path)} {' '.join(extras_words)}"
        items.append(Item(item_id=item_id, title=f"sample {i:05d}", body=body))
        true_path[item_id] = path
    return PlantedWorld(taxonomy=tax, corpus=Corpus(items), true_path=true_path)


def make_interactions(world: PlantedWorld, n_users: int = 500,
                      history_range: tuple[int, int] = (5, 9), seed: int = 11,
                      in_group_prob: float = 0.8) -> list[Interaction]:
    """Per-user histories biased toward one level-1 subtree.

    The final (target) item always lies in the user's preferred subtree so
    oracle-constrained decoding has signal to exploit.
    """
    rng = random.Random(seed)
    by_level1: dict[str, list[str]] = {}
    for item_id, path in world.true_path.items():
        by_level1.setdefault(path[0], []).append(item_id)
    for ids in by_level1.values():
        ids.sort()
    level1s = sorted(by_level1)
    all_ids = sorted(world.true_path)
    records: list[Interaction] = []
    for u in range(n_users):
        user_id = f"user{u:05d}"
        group = level1s[rng.randrange(len(level1s))]
        length = rng.randint(*history_range)
        for step in range(length):
            if step == length - 1 or rng.random() < in_group_prob:
                item_id = by_level1[group][rng.randrange(len(by_level1[group]))]
            else:
                item_id = all_ids[rng.randrange(len(all_ids))]
            records.append(Interaction(user_id=user_id, item_id=item_id,
                                       timestamp=1_000_000 + step * 60))
    records.sort(key=lambda r: (r.user_id, r.timestamp))
    return records


def save_world(world: PlantedWorld, path: str | Path) -> None:
    payload = {"taxonomy": world.taxonomy.to_json(),
               "true_path": {k: list(v) for k, v in world.true_path.items()}}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_taxonomy(path: str | Path) -> PlantedTaxonomy:
    return PlantedTaxonomy.from_json(read_json(path)["taxonomy"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a planted demo dataset (corpus, interactions, world).")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--branching", default="4,4,4",
                        help="comma-separated fanout per level")
    parser.add_argument("--items", type=int, default=2000)
    parser.add_argument("--users", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    branching = tuple(int(x) for x in args.branching.split(","))
    world = make_world(branching=branching, n_items=args.items, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    write_corpus(world.corpus, args.out / "corpus.jsonl")
    interactions = make_interactions(world, n_users=args.users, seed=args.seed + 1)
    write_interactions(interactions, args.out / "interactions.jsonl")
    save_world(world, args.out / "world.json")
    print(f"wrote {len(world.corpus)} items, {len(interactions)} interactions "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
