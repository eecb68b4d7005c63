"""Final vocabulary assignment and semantic-ID export.

Each item gets one descriptor per level via a greedy descent: one annotator
call per visited level, unless the build's annotators already matched the
item to exactly one child there. Items sharing a path receive
collision-resolver ranks so that (path, resolver) is a bijection onto items,
and the result exports both as token sequences and as fixed-slot categorical
features.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

from . import prompts, wire
from .corpus import Corpus
from .gateway import AgentRole, BackendRefusalError, Gateway, fan_out
from .protocol import STOP, ProtocolError, parse_best_rule
from .runs import atomic_open, read_json, read_jsonl, write_json, write_jsonl
from .vocab import VocabularyTree

BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"
SPECIALS = (BOS, EOS, SEP)

NONE_SLOT = "NONE"


# What the build's annotators matched: node rule id -> item id -> children.
Annotations = Mapping[str, Mapping[str, Sequence[str]]]


class AssignmentError(ValueError):
    pass


@dataclass
class AssignmentRecord:
    item_id: str
    path: tuple[str, ...]
    resolver: int | None = None
    terminated: bool = False
    flag: str | None = None

    def to_json(self) -> dict:
        return {"item_id": self.item_id, "path": list(self.path),
                "resolver": self.resolver, "terminated": self.terminated,
                "flag": self.flag}

    @classmethod
    def from_json(cls, raw: dict) -> "AssignmentRecord":
        return cls(item_id=raw["item_id"], path=tuple(raw["path"]),
                   resolver=raw.get("resolver"),
                   terminated=raw.get("terminated", False), flag=raw.get("flag"))


@dataclass
class VocabStats:
    n_descriptors_total: int
    n_descriptors_used: int
    n_resolvers: int
    utilization: float
    per_level_cardinality: dict[int, int]
    items_per_descriptor: dict[int, int]

    @property
    def vocab_size_label(self) -> str:
        """Base-plus-resolver notation, e.g. '2487+80'."""
        return f"{self.n_descriptors_total}+{self.n_resolvers}"

    def to_json(self) -> dict:
        return {
            "n_descriptors_total": self.n_descriptors_total,
            "n_descriptors_used": self.n_descriptors_used,
            "n_resolvers": self.n_resolvers,
            "utilization": self.utilization,
            "vocab_size": self.vocab_size_label,
            "per_level_cardinality": {str(k): v for k, v
                                      in sorted(self.per_level_cardinality.items())},
            "items_per_descriptor": {str(k): v for k, v
                                     in sorted(self.items_per_descriptor.items())},
        }


def assign_paths(corpus: Corpus, tree: VocabularyTree, gateway: Gateway,
                 parallelism: int = 8,
                 annotations: Annotations | None = None) -> list[AssignmentRecord]:
    """Assign a descriptor path to every item (resolver left unset).

    The descent is greedy: at each node it presents only that node's
    children and asks for the single best child or STOP. Where the build's
    ``annotations`` (node -> item -> matched children) name exactly one
    child for this item at this node, the descent takes it without a call.
    Per-item failures yield an empty or truncated path with a flag; only an
    exhausted call budget stops the batch (see :func:`gateway.fan_out`).
    """
    # Each node's prompt is rendered once per batch, not once per item.
    frames = {rule_id: prompts.prompt_frame(prompts.ASSIGN_ITEM, {
                  "rules_text": wire.rules_text(tree.children_of(rule_id)),
                  "instruction": prompts.ASSIGN_BEST_INSTRUCTION}, "item_text")
              for rule_id, children in tree.children.items() if children}
    worker = partial(_descend, tree=tree, gateway=gateway,
                     annotations=annotations or {}, frames=frames)
    items = list(corpus)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        results = fan_out(pool, worker, items, width=parallelism)
    max_depth = tree.max_depth()
    records = []
    for item, rec in sorted(zip(items, results), key=lambda pair: pair[0].item_id):
        if isinstance(rec, Exception):
            kind = "refused" if isinstance(rec, BackendRefusalError) else "transport"
            rec = AssignmentRecord(item_id=item.item_id, path=(),
                                   flag=f"{kind}: {rec}")
        rec.terminated = len(rec.path) < max_depth
        records.append(rec)
    return records


def _descend(item, tree: VocabularyTree, gateway: Gateway,
             annotations: Annotations,
             frames: Mapping[str, tuple[str, str]]) -> AssignmentRecord:
    """``frames`` holds each internal node's prompt around the item line."""
    item_text = wire.item_line(item.item_id, item.prompt_text())
    rule_id = tree.root_id
    path: list[str] = []
    flag = None
    while children := tree.children.get(rule_id):
        matched = annotations.get(rule_id, {}).get(item.item_id, ())
        if len(matched) == 1:
            choice = matched[0]
        else:
            head, tail = frames[rule_id]
            try:
                choice = gateway.complete_parsed(
                    AgentRole.ANNOTATOR, head + item_text + tail,
                    prompts.ASSIGN_ITEM, parse_best_rule)
            except ProtocolError:
                flag = "truncated: unparseable choice"
                break
        if choice == STOP:
            break
        if choice not in children:
            flag = "truncated: unknown rule id"
            break
        path.append(choice)
        rule_id = choice
    if not path and flag is None:
        flag = "no-path"
    return AssignmentRecord(item_id=item.item_id, path=tuple(path), flag=flag)


def resolve_collisions(records: list[AssignmentRecord]) -> list[AssignmentRecord]:
    """Rank items sharing a path by item_id; ranks become resolver tokens."""
    by_path: dict[tuple[str, ...], list[AssignmentRecord]] = {}
    for rec in records:
        by_path.setdefault(rec.path, []).append(rec)
    for group in by_path.values():
        group.sort(key=lambda r: r.item_id)
        for rank, rec in enumerate(group):
            rec.resolver = rank
    return sorted(records, key=lambda r: r.item_id)


@dataclass
class SemidRow:
    item_id: str
    tokens: list[int]
    path_names: list[str]


@dataclass
class SemidTable:
    """Token sequences per item plus the token meanings.

    ``token_of`` (name -> token), ``special_tokens``, the item id index and
    ``units`` (item id -> its tokens without the trailing EOS, as a tuple)
    are built once from ``rows`` and ``token_map``, which are not to be
    mutated afterwards.
    """

    rows: list[SemidRow]
    token_map: dict[int, str]

    def __post_init__(self) -> None:
        self.token_of = {name: tok for tok, name in self.token_map.items()}
        self.special_tokens = {name: tok for name, tok in self.token_of.items()
                               if name.startswith("special:")}
        self._by_id = {row.item_id: row for row in self.rows}
        eos = self.special_tokens.get(f"special:{EOS}")
        self.units = {row.item_id: tuple(row.tokens[:-1] if row.tokens and
                                         row.tokens[-1] == eos else row.tokens)
                      for row in self.rows}

    def row_of(self, item_id: str) -> SemidRow:
        return self._by_id[item_id]

    def save(self, rows_path: str | Path, map_path: str | Path) -> None:
        write_jsonl(rows_path, ({"item_id": row.item_id, "tokens": row.tokens,
                                 "path_names": row.path_names}
                                for row in self.rows))
        write_json(map_path, {str(k): v for k, v in sorted(self.token_map.items())},
                   indent=2)

    @classmethod
    def load(cls, rows_path: str | Path, map_path: str | Path) -> "SemidTable":
        token_map = {int(k): v for k, v in read_json(map_path).items()}
        rows = [SemidRow(item_id=raw["item_id"], tokens=raw["tokens"],
                         path_names=raw["path_names"])
                for raw in read_jsonl(rows_path)]
        return cls(rows=rows, token_map=token_map)


def export_semids(records: list[AssignmentRecord],
                  tree: VocabularyTree) -> SemidTable:
    """Token sequences [path tokens..., resolver token, EOS] per item.

    Descriptor tokens are assigned by (depth, rule_id) order after the
    specials; resolver values live in a disjoint range above them.
    """
    unresolved = [r.item_id for r in records if r.resolver is None]
    if unresolved:
        raise AssignmentError(
            f"unresolved collisions for {len(unresolved)} items "
            f"(e.g. {unresolved[0]})")
    token_map: dict[int, str] = {}
    token_of: dict[str, int] = {}
    for i, name in enumerate(SPECIALS):
        token_map[i] = f"special:{name}"
        token_of[name] = i
    next_token = len(SPECIALS)
    for node in tree.descriptor_nodes():
        token_map[next_token] = node.rule_id
        token_of[node.rule_id] = next_token
        next_token += 1
    max_resolver = max(r.resolver for r in records)
    for value in range(max_resolver + 1):
        token_map[next_token] = f"resolver:{value}"
        token_of[f"resolver:{value}"] = next_token
        next_token += 1
    rows = []
    for rec in sorted(records, key=lambda r: r.item_id):
        tokens = [token_of[rule_id] for rule_id in rec.path]
        tokens.append(token_of[f"resolver:{rec.resolver}"])
        tokens.append(token_of[EOS])
        names = [tree.node(rule_id).name for rule_id in rec.path]
        rows.append(SemidRow(item_id=rec.item_id, tokens=tokens,
                             path_names=names))
    return SemidTable(rows=rows, token_map=token_map)


def export_fixed_slots(records: list[AssignmentRecord], tree: VocabularyTree,
                       n_slots: int) -> list[dict[str, str]]:
    """Fixed-slot nominal features: slot k holds the depth-(k+1) rule id."""
    max_len = max((len(r.path) for r in records), default=0)
    if n_slots < max_len:
        raise AssignmentError(
            f"n_slots={n_slots} is smaller than the longest path ({max_len})")
    rows = []
    for rec in sorted(records, key=lambda r: r.item_id):
        row = {"item_id": rec.item_id}
        for slot in range(n_slots):
            row[f"slot_{slot + 1}"] = (rec.path[slot] if slot < len(rec.path)
                                       else NONE_SLOT)
        rows.append(row)
    return rows


def write_fixed_slots_csv(rows: list[dict[str, str]], path: str | Path) -> None:
    if not rows:
        raise AssignmentError("no rows to write")
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def vocab_stats(records: list[AssignmentRecord],
                tree: VocabularyTree) -> VocabStats:
    """Descriptor usage statistics, including the utilization rate."""
    usage: dict[str, int] = {}
    per_level: dict[int, set[str]] = {}
    for rec in records:
        for depth, rule_id in enumerate(rec.path, start=1):
            usage[rule_id] = usage.get(rule_id, 0) + 1
            per_level.setdefault(depth, set()).add(rule_id)
    used = len(usage)
    reused = sum(1 for count in usage.values() if count >= 2)
    histogram: dict[int, int] = {}
    for count in usage.values():
        histogram[count] = histogram.get(count, 0) + 1
    n_resolvers = (max((r.resolver for r in records
                        if r.resolver is not None), default=-1) + 1)
    return VocabStats(
        n_descriptors_total=len(tree.descriptor_nodes()),
        n_descriptors_used=used,
        n_resolvers=n_resolvers,
        utilization=(reused / used) if used else 0.0,
        per_level_cardinality={d: len(s) for d, s in per_level.items()},
        items_per_descriptor=histogram,
    )
