"""Item corpus and interaction-log ingestion with chronological splitting.

Items and interactions arrive as JSONL. Splitting follows the last-out
protocol: per user, the final interaction (by timestamp, ties broken by
input order) becomes the test item, the second-last the validation item,
and everything earlier the training sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .runs import atomic_open, decode_line, read_jsonl, write_jsonl

# A str's JSON literal, as json.dumps writes it.
_json_string = json.JSONEncoder().encode


class CorpusError(ValueError):
    """Malformed or inconsistent corpus / interaction input."""


@dataclass
class IngestReport:
    """Mutable counters filled by the lenient loaders."""

    malformed_lines: int = 0
    unknown_items: int = 0
    excluded_users: int = 0


@dataclass(frozen=True)
class Item:
    item_id: str
    title: str = ""
    body: str = ""
    extras: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.item_id:
            raise CorpusError("item_id must be non-empty")
        if not self.title and not self.body:
            raise CorpusError(f"item {self.item_id!r}: title and body are both empty")

    def prompt_text(self, budget: int = 1500) -> str:
        """Item text as fed to LLM prompts: title, newline, body, truncated."""
        text = f"{self.title}\n{self.body}".strip()
        return text[:budget]


class Corpus:
    """Ordered item collection with a unique item_id index.

    Iteration order is the input order and is stable. Read-only after
    construction; safe for concurrent readers.
    """

    def __init__(self, items: list[Item]):
        if not items:
            raise CorpusError("corpus has zero items")
        self._items = list(items)
        self._index: dict[str, int] = {}
        for pos, item in enumerate(self._items):
            if item.item_id in self._index:
                raise CorpusError(f"duplicate item_id {item.item_id!r}")
            self._index[item.item_id] = pos

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def get(self, item_id: str) -> Item:
        return self._items[self._index[item_id]]

    @property
    def item_ids(self) -> list[str]:
        return [item.item_id for item in self._items]


@dataclass(slots=True)
class Interaction:
    user_id: str
    item_id: str
    timestamp: int


@dataclass
class SplitDataset:
    """Last-out split: per user one test item, one validation item, the rest train."""

    train: dict[str, list[str]]
    valid: dict[str, str]
    test: dict[str, str]


def load_corpus(path: str | Path, lenient: bool = False,
                report: IngestReport | None = None) -> Corpus:
    """Read one JSON object per line into a Corpus.

    Strict mode (default) raises on the first malformed line or duplicate
    item_id, naming the line number. Lenient mode skips malformed lines and
    counts them in ``report``; duplicate ids are an error in both modes.
    """
    path = Path(path)
    items: list[Item] = []
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = decode_line(line)
                item = Item(
                    item_id=str(raw["item_id"]),
                    title=str(raw.get("title", "")),
                    body=str(raw.get("body", "")),
                    extras={str(k): str(v) for k, v in raw.get("extras", {}).items()},
                )
            except (json.JSONDecodeError, KeyError, TypeError, AttributeError, CorpusError) as exc:
                if lenient:
                    if report is not None:
                        report.malformed_lines += 1
                    continue
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            if item.item_id in seen:
                raise CorpusError(
                    f"{path}:{lineno}: duplicate item_id {item.item_id!r} "
                    f"(first seen at line {seen[item.item_id]})"
                )
            seen[item.item_id] = lineno
            items.append(item)
    if not items:
        raise CorpusError(f"{path}: zero valid items")
    return Corpus(items)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, ({"item_id": item.item_id, "title": item.title,
                        "body": item.body, "extras": item.extras}
                       for item in corpus), ensure_ascii=False)


def load_interactions(path: str | Path, corpus: Corpus | None = None,
                      strict: bool = True,
                      report: IngestReport | None = None) -> list[Interaction]:
    """Read interaction JSONL sorted by (user_id, timestamp, input order).

    Interactions referencing item_ids absent from ``corpus`` are an error in
    strict mode and are dropped (and counted in ``report``) otherwise. Each
    row is one ``Interaction``; equal user ids share one string, and with a
    corpus every item id is the corpus's own string.
    """
    path = Path(path)
    users: dict[str, str] = {}
    rows: list[Interaction] = []
    if corpus is not None:
        index, items = corpus._index, corpus._items
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = decode_line(line)
                user_id = str(raw["user_id"])
                item_id = str(raw["item_id"])
                timestamp = int(raw["timestamp"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            if corpus is not None:
                pos = index.get(item_id)
                if pos is None:
                    if strict:
                        raise CorpusError(f"{path}:{lineno}: unknown item_id {item_id!r}")
                    if report is not None:
                        report.unknown_items += 1
                    continue
                item_id = items[pos].item_id
            rows.append(Interaction(users.setdefault(user_id, user_id), item_id,
                                    timestamp))
    # Rows are in line order and list.sort is stable, so sorting by
    # timestamp and then by user gives (user_id, timestamp, line) order
    # without a key tuple per row.
    rows.sort(key=attrgetter("timestamp"))
    rows.sort(key=attrgetter("user_id"))
    return rows


def write_interactions(interactions: list[Interaction], path: str | Path) -> None:
    write_jsonl(path, ({"user_id": rec.user_id, "item_id": rec.item_id,
                        "timestamp": rec.timestamp} for rec in interactions))


def last_out_split(interactions: list[Interaction],
                   report: IngestReport | None = None) -> SplitDataset:
    """Split sorted interactions: last item test, second-last valid, rest train.

    Users with fewer than 3 interactions are excluded and counted in
    ``report``. Input must already be sorted as produced by
    :func:`load_interactions`; timestamp ties keep input order.
    """
    per_user: dict[str, list[str]] = {}
    for rec in interactions:
        per_user.setdefault(rec.user_id, []).append(rec.item_id)
    train: dict[str, list[str]] = {}
    valid: dict[str, str] = {}
    test: dict[str, str] = {}
    excluded = 0
    for user_id, seq in per_user.items():
        if len(seq) < 3:
            excluded += 1
            continue
        train[user_id] = seq[:-2]
        valid[user_id] = seq[-2]
        test[user_id] = seq[-1]
    if report is not None:
        report.excluded_users += excluded
    return SplitDataset(train=train, valid=valid, test=test)


def write_splits(split: SplitDataset, path: str | Path) -> None:
    """Three lines per user, each what ``json.dumps`` makes of its row, built
    without the row dict and the encoder ``json.dumps`` makes for it."""
    with atomic_open(path) as fh:
        for user_id in sorted(split.train):
            user = _json_string(user_id)
            item_ids = ", ".join(map(_json_string, split.train[user_id]))
            fh.write(f'{{"split": "train", "user_id": {user}, "item_ids": [{item_ids}]}}\n'
                     f'{{"split": "valid", "user_id": {user}, '
                     f'"item_id": {_json_string(split.valid[user_id])}}}\n'
                     f'{{"split": "test", "user_id": {user}, '
                     f'"item_id": {_json_string(split.test[user_id])}}}\n')


def read_splits(path: str | Path) -> SplitDataset:
    train: dict[str, list[str]] = {}
    valid: dict[str, str] = {}
    test: dict[str, str] = {}
    for raw in read_jsonl(path):
        kind = raw["split"]
        if kind == "train":
            train[raw["user_id"]] = raw["item_ids"]
        elif kind == "valid":
            valid[raw["user_id"]] = raw["item_id"]
        elif kind == "test":
            test[raw["user_id"]] = raw["item_id"]
        else:
            raise CorpusError(f"unknown split kind {kind!r}")
    return SplitDataset(train=train, valid=valid, test=test)
