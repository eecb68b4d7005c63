"""Free-form tag generation baseline with the two pruning schemes.

Unconstrained tagging explodes the vocabulary (most tags occur once); the
frequency-bin and K-Means pruners compress each item's tag set into short
coarse-to-fine sequences for comparison against pipeline descriptors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts, wire
from .clustering import embed_batch, k_means
from .corpus import Corpus
from .gateway import AgentRole, Gateway, fan_out
from .protocol import parse_keywords
from .runs import read_jsonl, write_jsonl


class FreeformError(ValueError):
    pass


def normalize_tag(tag: str) -> str:
    return " ".join(tag.casefold().split())


@dataclass
class FreeformTagTable:
    tags_by_item: dict[str, list[str]]
    frequency: dict[str, int] = field(default_factory=dict)
    n_failed_items: int = 0

    def rebuild_frequency(self) -> None:
        freq: dict[str, int] = {}
        for tags in self.tags_by_item.values():
            for tag in tags:
                freq[tag] = freq.get(tag, 0) + 1
        self.frequency = freq

    def save(self, path: str | Path) -> None:
        write_jsonl(path, ({"item_id": item_id, "tags": self.tags_by_item[item_id]}
                           for item_id in sorted(self.tags_by_item)))

    @classmethod
    def load(cls, path: str | Path) -> "FreeformTagTable":
        table = cls(tags_by_item={row["item_id"]: list(row["tags"])
                                  for row in read_jsonl(path)})
        table.rebuild_frequency()
        return table


def generate_freeform(corpus: Corpus, gateway: Gateway, n_tags_per_item: int = 3,
                      parallelism: int = 8) -> FreeformTagTable:
    """One tagging call per item; failures yield empty tag lists, counted."""

    def tag_item(item) -> list[str]:
        prompt = prompts.render_prompt(prompts.FREEFORM_TAG, {
            "n_tags": str(n_tags_per_item),
            "item_text": wire.item_line(item.item_id, item.prompt_text()),
        })
        keywords = gateway.complete_parsed(AgentRole.ANNOTATOR, prompt,
                                           prompts.FREEFORM_TAG, parse_keywords)
        seen = []
        for kw in keywords[:n_tags_per_item]:
            tag = normalize_tag(kw)
            if tag and tag not in seen:
                seen.append(tag)
        return seen

    items = list(corpus)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        results = fan_out(pool, tag_item, items)
    table = FreeformTagTable(tags_by_item={})
    for item, tags in sorted(zip(items, results), key=lambda pair: pair[0].item_id):
        if isinstance(tags, Exception):
            tags = []
            table.n_failed_items += 1
        table.tags_by_item[item.item_id] = tags
    table.rebuild_frequency()
    return table


def tag_utilization(table: FreeformTagTable) -> float:
    """Fraction of used tags appearing in more than one item."""
    used = [tag for tag, freq in table.frequency.items() if freq >= 1]
    if not used:
        return 0.0
    reused = sum(1 for tag in used if table.frequency[tag] >= 2)
    return reused / len(used)


def frequency_bins(table: FreeformTagTable, min_f: int = 10, max_f: int = 2000,
                   n_bins: int = 4) -> dict[str, int]:
    """Equal-population bins over eligible tags by frequency rank.

    Bin 0 holds the most frequent tags; populations differ by at most one.
    Tags rarer than ``min_f`` or more common than ``max_f`` are dropped.
    """
    if min_f >= max_f:
        raise FreeformError("min_f must be < max_f")
    eligible = [(tag, freq) for tag, freq in table.frequency.items()
                if min_f <= freq <= max_f]
    if not eligible:
        raise FreeformError("no tags fall inside the frequency window")
    eligible.sort(key=lambda tf: (-tf[1], tf[0]))
    n = len(eligible)
    base, remainder = divmod(n, n_bins)
    bin_of: dict[str, int] = {}
    index = 0
    for bin_id in range(n_bins):
        size = base + (1 if bin_id < remainder else 0)
        for tag, _ in eligible[index:index + size]:
            bin_of[tag] = bin_id
        index += size
    return bin_of


def prune_frequency_bins(table: FreeformTagTable, min_f: int = 10,
                         max_f: int = 2000,
                         n_bins: int = 4) -> dict[str, list[str]]:
    """Per item, the most frequent tag from each populated bin, coarse first."""
    bin_of = frequency_bins(table, min_f=min_f, max_f=max_f, n_bins=n_bins)
    out: dict[str, list[str]] = {}
    for item_id, tags in table.tags_by_item.items():
        best: dict[int, str] = {}
        for tag in tags:
            bin_id = bin_of.get(tag)
            if bin_id is None:
                continue
            cur = best.get(bin_id)
            if (cur is None or table.frequency[tag] > table.frequency[cur]
                    or (table.frequency[tag] == table.frequency[cur] and tag < cur)):
                best[bin_id] = tag
        out[item_id] = [best[b] for b in sorted(best)]
    return out


def prune_kmeans(table: FreeformTagTable, provider, k: int = 5000,
                 seed: int = 0) -> tuple[dict[str, list[str]], dict[str, int]]:
    """Replace tags by K-Means centroid ids over tag embeddings.

    Returns (item -> deduplicated centroid-id sequence, tag -> centroid id).
    """
    distinct = sorted(tag for tag, freq in table.frequency.items() if freq >= 1)
    if len(distinct) < k:
        raise FreeformError(
            f"need at least k={k} distinct tags, have {len(distinct)}")
    vectors = embed_batch(provider, distinct)
    result = k_means(vectors, k, seed=seed)
    centroid_of = {tag: int(result.assignment[i])
                   for i, tag in enumerate(distinct)}
    out: dict[str, list[str]] = {}
    for item_id, tags in table.tags_by_item.items():
        seq: list[str] = []
        for tag in tags:
            cid = f"centroid:{centroid_of[tag]}"
            if cid not in seq:
                seq.append(cid)
        out[item_id] = seq
    return out, centroid_of


def pruned_to_semid_rows(pruned: dict[str, list[str]]) -> list[dict]:
    """Pruned sequences in the semantic-ID JSONL layout for comparison."""
    vocab: dict[str, int] = {}
    rows = []
    for item_id in sorted(pruned):
        tokens = []
        for tag in pruned[item_id]:
            if tag not in vocab:
                vocab[tag] = len(vocab)
            tokens.append(vocab[tag])
        rows.append({"item_id": item_id, "tokens": tokens,
                     "path_names": list(pruned[item_id])})
    return rows
