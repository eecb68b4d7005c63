"""Descriptor vocabulary tree: nodes, invariants, and persistence.

The tree roots at a pseudo-node holding the whole corpus at depth 0; every
real descriptor hangs below it. The tree JSON keeps only counts; per-node
item sets are persisted separately as JSONL so the tree file stays small.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Container, Iterable, Mapping

from .runs import read_json, read_jsonl, write_json, write_jsonl

ROOT_NAME = "ROOT"
ROOT_DESCRIPTION = "ROOT: INCLUDES: every item in the corpus. EXCLUDES: nothing."

RULE_ID_RE = re.compile(r"^rule_[0-9a-f]{8}$")

STATUS_ACTIVE = "active"
STATUS_OUTLIERS_RECORDED = "ignored-outliers-recorded"


class VocabularyError(ValueError):
    pass


def make_rule_id(*parts: str) -> str:
    digest = hashlib.sha1("/".join(parts).encode("utf-8")).hexdigest()
    return f"rule_{digest[:8]}"


@dataclass
class DescriptorNode:
    rule_id: str
    name: str
    description: str
    parent: str | None
    depth: int
    items: set[str] = field(default_factory=set)
    status: str = STATUS_ACTIVE

    def __post_init__(self) -> None:
        if not RULE_ID_RE.match(self.rule_id):
            raise VocabularyError(f"bad rule_id format: {self.rule_id!r}")


class VocabularyTree:
    def __init__(self, root_items: set[str], config: dict | None = None):
        self.root_id = make_rule_id("root")
        root = DescriptorNode(rule_id=self.root_id, name=ROOT_NAME,
                              description=ROOT_DESCRIPTION, parent=None,
                              depth=0, items=set(root_items))
        self.nodes: dict[str, DescriptorNode] = {self.root_id: root}
        self.children: dict[str, list[str]] = {self.root_id: []}
        self.config = dict(config or {})

    @property
    def root(self) -> DescriptorNode:
        return self.nodes[self.root_id]

    def node(self, rule_id: str) -> DescriptorNode:
        return self.nodes[rule_id]

    def children_of(self, rule_id: str) -> list[DescriptorNode]:
        return [self.nodes[c] for c in self.children.get(rule_id, [])]

    def descriptor_nodes(self) -> list[DescriptorNode]:
        """All non-root nodes ordered by (depth, rule_id)."""
        out = [n for n in self.nodes.values() if n.parent is not None]
        out.sort(key=lambda n: (n.depth, n.rule_id))
        return out

    def max_depth(self) -> int:
        return max((n.depth for n in self.nodes.values()), default=0)

    def level_nodes(self, depth: int) -> list[DescriptorNode]:
        return sorted((n for n in self.nodes.values() if n.depth == depth),
                      key=lambda n: n.rule_id)

    def fresh_rule_id(self, parent_id: str, name: str,
                      taken: Container[str] = ()) -> str:
        """Rule id for ``name`` under ``parent_id``, salted until it is free
        in the tree and in ``taken`` (ids chosen but not yet committed)."""
        rule_id = make_rule_id(parent_id, name)
        salt = 0
        while rule_id in self.nodes or rule_id in taken:
            salt += 1
            rule_id = make_rule_id(parent_id, name, str(salt))
        return rule_id

    def add_child(self, parent_id: str, node: DescriptorNode) -> None:
        parent = self.nodes[parent_id]
        if node.rule_id in self.nodes:
            raise VocabularyError(f"duplicate rule_id {node.rule_id}")
        if node.parent != parent_id:
            raise VocabularyError("node.parent does not match parent_id")
        if node.depth != parent.depth + 1:
            raise VocabularyError("node.depth must be parent.depth + 1")
        if not node.items <= parent.items:
            raise VocabularyError(
                f"{node.rule_id}: items are not a subset of the parent's")
        self.nodes[node.rule_id] = node
        self.children.setdefault(parent_id, []).append(node.rule_id)
        self.children.setdefault(node.rule_id, [])

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        roots = [n for n in self.nodes.values() if n.parent is None]
        if len(roots) != 1 or roots[0].rule_id != self.root_id:
            raise VocabularyError("tree must have exactly one root")
        reached = set()
        stack = [self.root_id]
        while stack:
            rid = stack.pop()
            if rid in reached:
                raise VocabularyError(f"cycle through {rid}")
            reached.add(rid)
            stack.extend(self.children.get(rid, []))
        if reached != set(self.nodes):
            raise VocabularyError("unreachable nodes present")
        for node in self.nodes.values():
            if node.parent is not None:
                parent = self.nodes[node.parent]
                if node.depth != parent.depth + 1:
                    raise VocabularyError(f"{node.rule_id}: bad depth")
                if not node.items <= parent.items:
                    raise VocabularyError(f"{node.rule_id}: items exceed parent")

    def to_json(self) -> dict:
        return {
            "root": self.root_id,
            "config": self.config,
            "nodes": {
                rid: {"name": n.name, "description": n.description,
                      "parent": n.parent, "depth": n.depth,
                      "item_count": len(n.items), "status": n.status}
                for rid, n in sorted(self.nodes.items())
            },
        }

    @classmethod
    def from_json(cls, payload: dict,
                  items_by_rule: Mapping[str, Iterable[str]]) -> "VocabularyTree":
        """Inverse of :meth:`to_json`, with member items supplied per rule."""
        tree = cls.__new__(cls)
        tree.root_id = payload["root"]
        tree.config = payload.get("config", {})
        tree.nodes = {}
        tree.children = {}
        for rid, raw in payload["nodes"].items():
            tree.nodes[rid] = DescriptorNode(
                rule_id=rid, name=raw["name"], description=raw["description"],
                parent=raw["parent"], depth=raw["depth"],
                items=set(items_by_rule.get(rid, ())),
                status=raw.get("status", STATUS_ACTIVE))
            tree.children.setdefault(rid, [])
        for rid, node in tree.nodes.items():
            if node.parent is not None:
                tree.children.setdefault(node.parent, []).append(rid)
        for rid in tree.children:
            tree.children[rid].sort()
        return tree

    def save(self, tree_path: str | Path,
             items_path: str | Path | None = None) -> None:
        write_json(tree_path, self.to_json(), indent=2, sort_keys=True)
        if items_path is not None:
            write_jsonl(items_path, ({"rule_id": rid,
                                      "item_ids": sorted(self.nodes[rid].items)}
                                     for rid in sorted(self.nodes)))

    @classmethod
    def load(cls, tree_path: str | Path,
             items_path: str | Path | None = None) -> "VocabularyTree":
        items_by_rule = ({} if items_path is None else
                         {row["rule_id"]: row["item_ids"]
                          for row in read_jsonl(items_path)})
        return cls.from_json(read_json(tree_path), items_by_rule)


@dataclass
class BuildConfig:
    """Hyperparameters of the vocabulary build.

    ``branching_factor`` 0 means unlimited (an item descends into every
    matched child); 1 reproduces the scalable single-path mode.
    """

    d_max: int = 3
    tau_split: int = 30
    c_max: int = 3
    tau_anom: int | None = None
    n_target_rules: int = 15
    branching_factor: int = 0
    coverage_break: float = 0.95
    min_error_reports: int = 20
    proposal_batch: int = 5
    ticket_examples_cap: int = 20
    seed: int = 7
    parallelism: int = 8

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise VocabularyError("d_max must be >= 1")
        if self.tau_split < 2:
            raise VocabularyError("tau_split must be >= 2")
        if not 0.0 < self.coverage_break <= 1.0:
            raise VocabularyError("coverage_break must be in (0, 1]")
        if self.branching_factor < 0:
            raise VocabularyError("branching_factor must be >= 0 (0 = unlimited)")
        if self.parallelism < 1:
            raise VocabularyError("parallelism must be >= 1")

    def anomaly_threshold(self, n_items: int) -> int:
        if self.tau_anom is not None:
            return self.tau_anom
        return max(20, math.ceil(0.05 * n_items))

    def to_json(self) -> dict:
        """Every field but ``parallelism``, which sets how many calls run at
        once and not what the build produces."""
        payload = asdict(self)
        del payload["parallelism"]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "BuildConfig":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise VocabularyError(
                f"unknown build config keys: {', '.join(sorted(unknown))}")
        return cls(**payload)
