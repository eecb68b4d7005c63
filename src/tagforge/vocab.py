"""Descriptor vocabulary tree: nodes, invariants, and persistence; the
build's configuration and its per-node refinement logs.

The tree roots at a pseudo-node holding the whole corpus at depth 0; every
real descriptor hangs below it. The tree JSON keeps each node's structure and
item count, not its item set: placing items is the assignment stage's job,
and only the build checkpoint keeps item sets, for resume.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Container, Iterable, Mapping

from .runs import read_json, write_json, write_jsonl

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
    def __init__(self, root_items: Iterable[str], config: dict | None = None):
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
        parent = self.nodes.get(parent_id)
        if parent is None:
            raise VocabularyError(
                f"{node.rule_id}: parent {parent_id!r} is not in the tree")
        if node.rule_id in self.nodes:
            raise VocabularyError(f"duplicate rule_id {node.rule_id}")
        if node.parent != parent_id:
            raise VocabularyError("node.parent does not match parent_id")
        if node.depth != parent.depth + 1:
            raise VocabularyError(
                f"{node.rule_id}: depth {node.depth}, but its parent "
                f"{parent_id} is at depth {parent.depth}")
        if not node.items <= parent.items:
            raise VocabularyError(
                f"{node.rule_id}: items are not a subset of the parent's")
        self.nodes[node.rule_id] = node
        self.children.setdefault(parent_id, []).append(node.rule_id)
        self.children.setdefault(node.rule_id, [])

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
        """Inverse of :meth:`to_json`, with member items supplied per rule.

        Nodes are added through :meth:`add_child` level by level from the
        root, each level in rule_id order, so a loaded tree passes the same
        checks as a built one and the topmost node at a wrong depth is the
        one named. Nodes no level reaches (a missing parent, a cycle, a
        second root) come last, in rule_id order, and :meth:`add_child`
        rejects the first of them.
        """
        root_id = payload["root"]
        tree = cls(items_by_rule.get(root_id, ()), payload.get("config", {}))
        if root_id != tree.root_id:
            raise VocabularyError(f"bad root id {root_id!r}")
        raw_nodes = payload["nodes"]
        tree.root.status = raw_nodes[root_id].get("status", STATUS_ACTIVE)
        children: dict[str | None, list[str]] = {}
        for rid, raw in raw_nodes.items():
            if rid != root_id:
                children.setdefault(raw["parent"], []).append(rid)
        order, level = [], [root_id]
        while level:
            level = sorted(rid for parent in level
                           for rid in children.pop(parent, ()))
            order += level
        order += sorted(rid for rest in children.values() for rid in rest)
        for rid in order:
            raw = raw_nodes[rid]
            tree.add_child(raw["parent"], DescriptorNode(
                rule_id=rid, name=raw["name"], description=raw["description"],
                parent=raw["parent"], depth=raw["depth"],
                items=set(items_by_rule.get(rid, ())),
                status=raw.get("status", STATUS_ACTIVE)))
        return tree

    def save(self, tree_path: str | Path,
             items_path: str | Path | None = None) -> None:
        """Write the tree JSON to ``tree_path``. With ``items_path``, also
        write each node's item set there as JSONL; no stage passes it or
        reads that file."""
        write_json(tree_path, self.to_json(), indent=2, sort_keys=True)
        if items_path is not None:
            write_jsonl(items_path, ({"rule_id": rid,
                                      "item_ids": sorted(self.nodes[rid].items)}
                                     for rid in sorted(self.nodes)))

    @classmethod
    def load(cls, tree_path: str | Path) -> "VocabularyTree":
        """The tree saved at ``tree_path``: structure only, so every node's
        ``items`` is empty."""
        return cls.from_json(read_json(tree_path), {})


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
        for name, floor in (("d_max", 1), ("tau_split", 2), ("c_max", 1),
                            ("n_target_rules", 1), ("branching_factor", 0),
                            ("min_error_reports", 0), ("proposal_batch", 1),
                            ("ticket_examples_cap", 1), ("parallelism", 1)):
            if getattr(self, name) < floor:
                raise VocabularyError(f"{name} must be >= {floor}")
        if self.tau_anom is not None and self.tau_anom < 0:
            raise VocabularyError("tau_anom must be >= 0")
        if not 0.0 < self.coverage_break <= 1.0:
            raise VocabularyError("coverage_break must be in (0, 1]")

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


@dataclass
class CycleRecord:
    cycle: int
    coverage: float
    n_unassigned: int
    proposals: list[dict] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    vocab_before: int = 0
    vocab_after: int = 0


@dataclass
class RefinementLog:
    """One node's refinement. ``outlier_items``: the items of approved
    IGNORE_AS_OUTLIERS proposals. Written out with ``dataclasses.asdict``,
    read back by :func:`log_from_json`."""

    rule_id: str
    depth: int
    n_items: int
    notes: list[str] = field(default_factory=list)
    cycles: list[CycleRecord] = field(default_factory=list)
    outlier_items: list[str] = field(default_factory=list)


def log_from_json(row: dict) -> RefinementLog:
    """The inverse of ``dataclasses.asdict`` on a :class:`RefinementLog`."""
    return RefinementLog(**{**row, "cycles": [CycleRecord(**c)
                                              for c in row.get("cycles", [])]})
