"""Free-form tag generation baseline.

Unconstrained tagging explodes the vocabulary: most tags occur once. The
baseline records each item's tags and reports how many distinct tags there
are and what share of them more than one item uses.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts, wire
# Imported only because the benchmark tracer wraps ``freeform.embed_batch``;
# it is the one reason this module loads numpy.
from .clustering import embed_batch  # noqa: F401
from .corpus import Corpus
from .gateway import AgentRole, Gateway, fan_out
from .protocol import parse_keywords
from .runs import write_jsonl


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


def generate_freeform(corpus: Corpus, gateway: Gateway, n_tags_per_item: int = 3,
                      parallelism: int = 8) -> FreeformTagTable:
    """One tagging call per item; failures yield empty tag lists, counted."""
    head, tail = prompts.prompt_frame(
        prompts.FREEFORM_TAG, {"n_tags": str(n_tags_per_item)}, "item_text")

    def tag_item(item) -> list[str]:
        prompt = head + wire.item_line(item.item_id, item.prompt_text()) + tail
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
        results = fan_out(pool, tag_item, items, width=parallelism)
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
