"""Retrieval metrics and evaluation runs.

Last-out protocol: one relevant item per user, so NDCG takes the closed
form 1/log2(rank+1). Sampled mode ranks the target against n sampled
negatives by model score; full-rank mode decodes over the trie.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .assignment import SemidTable
from .corpus import SplitDataset
from .decoding import DescriptorTrie, SurrogateModel, beam_decode, encode_history
from .runs import atomic_open


class EvalError(ValueError):
    pass


def recall_at_k(ranked: list[str], target: str, k: int) -> float:
    if k < 1:
        raise EvalError("k must be >= 1")
    if not ranked:
        raise EvalError("empty ranking")
    return 1.0 if target in ranked[:k] else 0.0


def ndcg_at_k(ranked: list[str], target: str, k: int) -> float:
    if k < 1:
        raise EvalError("k must be >= 1")
    if not ranked:
        raise EvalError("empty ranking")
    for rank, item_id in enumerate(ranked[:k], start=1):
        if item_id == target:
            return 1.0 / math.log2(rank + 1)
    return 0.0


@dataclass
class MetricReport:
    mode: str
    n_users: int
    seed: int
    recall: dict[int, float] = field(default_factory=dict)
    ndcg: dict[int, float] = field(default_factory=dict)
    n_skipped: int = 0

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n_users": self.n_users,
            "seed": self.seed,
            "n_skipped": self.n_skipped,
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "ndcg": {str(k): v for k, v in sorted(self.ndcg.items())},
        }


def sample_negatives(rng: random.Random, all_ids: list[str],
                     skipped: list[int], n: int) -> list[str]:
    """``rng.sample`` of ``min(n, size)`` ids from ``all_ids`` without the
    sorted positions ``skipped``, drawn without building that pool.

    ``random.Random.sample``'s draws depend only on the population's length
    and the sample size, so it samples positions in the pool, and each
    position maps onto ``all_ids`` past the skipped ones before it: the same
    ids, in the same order, as sampling the pool itself.
    """
    size = len(all_ids) - len(skipped)
    # A pool position p lands at p + j, j the number of skipped positions
    # s_i with s_i - i <= p.
    shifted = [s - i for i, s in enumerate(skipped)]
    return [all_ids[p + bisect.bisect_right(shifted, p)]
            for p in rng.sample(range(size), min(n, size))]


def evaluate_run(model: SurrogateModel, trie: DescriptorTrie | None,
                 split: SplitDataset, table: SemidTable, mode: str = "full",
                 ks: tuple[int, ...] = (5, 10, 20), seed: int = 0,
                 n_negatives: int = 100, beam_width: int = 20,
                 allowed_level1_by_user: dict[str, set[int]] | None = None) -> MetricReport:
    """Average per-user metrics over the test targets.

    ``full`` decodes the trie with the beam; ``sampled`` ranks the target
    plus ``n_negatives`` seeded uniform negatives (drawn outside the user's
    train history) by sequence score, read along each candidate's trie path
    by ``model.score_path`` when a trie is given, else by
    ``model.score_sequence``. Users whose target lacks a semantic ID are
    skipped and counted. The beam returns at most ``beam_width`` items, so
    full mode rejects a cutoff above it.
    """
    if mode not in ("full", "sampled"):
        raise EvalError(f"unknown evaluation mode {mode!r}")
    if mode == "full" and trie is None:
        raise EvalError("full-rank mode requires a trie")
    if mode == "full" and max(ks, default=0) > beam_width:
        raise EvalError(f"cutoff K={max(ks)} exceeds beam width {beam_width}: "
                        "full-rank lists hold at most beam_width items")
    known = {row.item_id for row in table.rows}
    all_ids = sorted(known)
    position = {item_id: i for i, item_id in enumerate(all_ids)}
    sums = {k: [0.0, 0.0] for k in ks}
    n_users = 0
    n_skipped = 0
    for user_id in sorted(split.test):
        target = split.test[user_id]
        history = [i for i in split.train.get(user_id, []) if i in known]
        if target not in known or not history:
            n_skipped += 1
            continue
        context = encode_history(table, history, model.order)
        if mode == "full":
            allowed = (allowed_level1_by_user or {}).get(user_id)
            ranked = [item_id for item_id, _ in
                      beam_decode(model, context, trie, beam_width,
                                  allowed_level1=allowed)]
        else:
            rng = random.Random(f"{seed}:{user_id}")
            exclude = set(history) | {target}
            negatives = sample_negatives(rng, all_ids, sorted(
                position[i] for i in exclude), n_negatives)
            # Best score first, ties by item id.
            ranked = [item_id for _, item_id in sorted(
                (-(model.score_sequence(context, table.row_of(item_id).tokens)
                   if trie is None else
                   model.score_path(trie.root, context, table.units[item_id])),
                 item_id) for item_id in [target] + negatives)]
        for k in ks:
            sums[k][0] += recall_at_k(ranked, target, k)
            sums[k][1] += ndcg_at_k(ranked, target, k)
        n_users += 1
    report = MetricReport(mode=mode, n_users=n_users, seed=seed,
                          n_skipped=n_skipped)
    for k in ks:
        report.recall[k] = sums[k][0] / n_users if n_users else 0.0
        report.ndcg[k] = sums[k][1] / n_users if n_users else 0.0
    return report


def coverage_deltas(logs) -> list[tuple[int, int, float]]:
    """(level, cycle, coverage delta) for consecutive refine cycles."""
    rows = []
    for log in logs:
        cycles = log.cycles
        for prev, cur in zip(cycles, cycles[1:]):
            rows.append((log.depth + 1, cur.cycle, cur.coverage - prev.coverage))
    return rows


def write_coverage_csv(rows: list[tuple[int, int, float]],
                       path: str | Path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "cycle", "delta"])
        writer.writerows(rows)
