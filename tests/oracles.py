"""Slow reference implementations and exact inverses that tests compare the
package against; the pipeline itself never calls them."""

from __future__ import annotations

import json
import random
import re
from itertools import combinations
from unittest import mock

import numpy as np

from tagforge import clustering
from tagforge.assignment import EOS, AssignmentError, AssignmentRecord, SemidTable
from tagforge.corpus import SplitDataset
from tagforge.decoding import DecodingError, DescriptorTrie, SurrogateModel
from tagforge.freeform import FreeformTagTable
from tagforge.protocol import ProtocolError, ReviewDecision
from tagforge.runs import read_jsonl


def brute_force_medoids(vectors: np.ndarray, k: int) -> tuple[list[int], float]:
    """Exhaustive optimum over all medoid subsets; test oracle for small n."""
    vectors = clustering._check_inputs(vectors, k)
    dist = clustering._distance_matrix(vectors)
    best_cost = np.inf
    best: tuple[int, ...] = ()
    for combo in combinations(range(vectors.shape[0]), k):
        cost = dist[:, combo].min(axis=1).sum()
        if cost < best_cost - 1e-15:
            best_cost = cost
            best = combo
    return list(best), float(best_cost)


def reference_hashing_embed(texts: list[str], dim: int) -> np.ndarray:
    """``HashingProvider.embed`` hashing every token occurrence on its own."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        for token in clustering._TOKEN_RE.findall(text.lower()):
            out[row, clustering._bucket(token, dim)] += 1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def reference_swap_descent(dist: np.ndarray, medoids: list[int],
                           max_iter: int) -> tuple[list[int], float, list[float]]:
    """Best-improvement SWAP scored one medoid at a time, O(k n^2) per step.

    Each medoid's pass computes its own swap costs over the whole matrix:
    the textbook PAM loop that ``clustering._swap_descent`` must reproduce.
    """
    n = dist.shape[0]
    k = len(medoids)
    medoids = list(medoids)

    def _nearest_two(medoid_list: list[int]):
        cols = dist[:, medoid_list]
        order = np.argsort(cols, axis=1, kind="stable")
        d1 = cols[np.arange(n), order[:, 0]]
        owner = order[:, 0]
        if len(medoid_list) > 1:
            d2 = cols[np.arange(n), order[:, 1]]
        else:
            d2 = np.full(n, np.inf)
        return d1, d2, owner

    d1, d2, owner = _nearest_two(medoids)
    cost = float(d1.sum())
    history = [cost]
    for _ in range(max_iter):
        best_delta = -1e-12
        best_swap: tuple[int, int] | None = None
        for mi in range(k):
            mine = owner == mi
            others = ~mine
            # Swapping medoid mi for candidate h: points owned by mi move to
            # min(d(h), second-nearest); other points may defect to h.
            gain_mine = (np.minimum(dist[mine], d2[mine, None]) -
                         d1[mine, None]).sum(axis=0)
            gain_others = np.minimum(dist[others] - d1[others, None], 0.0).sum(axis=0)
            delta = gain_mine + gain_others
            delta[medoids] = np.inf
            h = int(np.argmin(delta))
            if delta[h] < best_delta:
                best_delta = float(delta[h])
                best_swap = (mi, h)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        d1, d2, owner = _nearest_two(medoids)
        cost = float(d1.sum())
        history.append(cost)
    return medoids, cost, history


def reference_k_medoids(vectors: np.ndarray, k: int,
                        seed: int = 0) -> clustering.ClusterResult:
    """``clustering.k_medoids`` with every descent run by the reference SWAP."""
    with mock.patch.object(clustering, "_swap_descent", reference_swap_descent):
        return clustering.k_medoids(vectors, k, seed=seed)


def surrogate_prob(model: SurrogateModel, token: int,
                   context: tuple[int, ...]) -> float:
    """P(token | last order-1 context tokens) from the raw counts, additive
    smoothing; with alpha = 0 an unseen context falls back to the uniform
    distribution. The reference ``SurrogateModel.logprob`` is checked against."""
    ctx = tuple(context[-(model.order - 1):]) if model.order > 1 else ()
    row = model.counts.get(ctx, {})
    total = sum(row.values())
    if model.alpha == 0.0 and total == 0:
        return 1.0 / model.vocab_size
    return ((row.get(token, 0) + model.alpha)
            / (total + model.alpha * model.vocab_size))


def reference_observe_stream(model: SurrogateModel, tokens: list[int]) -> None:
    """Drop the model's caches, then count one stream token by token, a
    context slice and two dict updates per token; the oracle for
    ``SurrogateModel.observe_streams``."""
    model._expansions.clear()
    model._rankings.clear()
    m = model.order
    for i in range(m - 1, len(tokens)):
        ctx = tuple(tokens[i - m + 1:i])
        nxt = tokens[i]
        row = model.counts.setdefault(ctx, {})
        row[nxt] = row.get(nxt, 0) + 1
        model.context_totals[ctx] = model.context_totals.get(ctx, 0) + 1


def enumerate_rank(model: SurrogateModel, history: tuple[int, ...],
                   table: SemidTable,
                   allowed_level1: set[int] | None = None) -> list[tuple[str, float]]:
    """Exhaustive scoring of every item's full sequence; oracle for
    ``decoding.beam_decode``."""
    scored = []
    for row in table.rows:
        if allowed_level1 is not None and row.tokens[0] not in allowed_level1:
            continue
        scored.append((row.item_id,
                       model.score_sequence(history, list(row.tokens))))
    scored.sort(key=lambda f: (-f[1], f[0]))
    return scored


def reference_sample_negatives(rng: random.Random, all_ids: list[str],
                               exclude: set[str], n: int) -> list[str]:
    """``rng.sample`` of up to ``n`` ids from a copy of ``all_ids`` without
    ``exclude``, built per user; the oracle for
    ``evalkit.sample_negatives``."""
    pool = [i for i in all_ids if i not in exclude]
    return rng.sample(pool, min(n, len(pool)))


def reference_beam_decode(model: SurrogateModel, history: tuple[int, ...],
                          trie: DescriptorTrie, beam_width: int,
                          allowed_level1: set[int] | None = None) -> list[tuple[str, float]]:
    """Trie-constrained beam search that asks ``SurrogateModel.logprob`` for
    every step and every EOS of every request; ``decoding.beam_decode``,
    which reads them from the model's expansion table, must return exactly
    this, scores included."""
    if beam_width < 1:
        raise DecodingError("beam width must be >= 1")
    if allowed_level1 is not None:
        if not allowed_level1:
            raise DecodingError("allowed level-1 token set is empty")
        extra = allowed_level1 - trie.level1_tokens()
        if extra:
            raise DecodingError(f"allowed tokens not at level 1: {sorted(extra)}")
    keep = model.order - 1
    live = [(trie.root, history[-keep:] if keep else (), 0.0, ())]
    finished: list[tuple[str, float, tuple[int, ...]]] = []
    first = True
    while live:
        candidates = []
        for node, ctx, score, gen in live:
            for token, child in sorted(node.children.items()):
                if first and allowed_level1 is not None \
                        and token not in allowed_level1:
                    continue
                step = model.logprob(token, ctx)
                candidates.append((child, token, ctx, score + step, gen))
        next_live = []
        for child, token, ctx, score, gen in candidates:
            new_ctx = (ctx + (token,))[-keep:] if keep else ()
            new_gen = gen + (token,)
            if child.item_id is not None:
                eos_score = score + model.logprob(model.eos_token, new_ctx)
                finished.append((child.item_id, eos_score, new_gen))
            else:
                next_live.append((child, new_ctx, score, new_gen))
        next_live.sort(key=lambda h: (-h[2], h[3]))
        live = next_live[:beam_width]
        first = False
    finished.sort(key=lambda f: (-f[1], f[0]))
    return [(item_id, score) for item_id, score, _ in finished[:beam_width]]


def decode_semids(table: SemidTable) -> list[AssignmentRecord]:
    """Invert ``assignment.export_semids``; exact round-trip."""
    eos_token = table.token_of[f"special:{EOS}"]
    records = []
    for row in table.rows:
        tokens = list(row.tokens)
        if tokens and tokens[-1] == eos_token:
            tokens = tokens[:-1]
        if not tokens:
            raise AssignmentError(f"{row.item_id}: empty token sequence")
        resolver_name = table.token_map[tokens[-1]]
        if not resolver_name.startswith("resolver:"):
            raise AssignmentError(f"{row.item_id}: sequence lacks a resolver token")
        path = tuple(table.token_map[t] for t in tokens[:-1])
        records.append(AssignmentRecord(
            item_id=row.item_id, path=path,
            resolver=int(resolver_name.split(":", 1)[1])))
    return records


def load_freeform_table(path) -> FreeformTagTable:
    """Invert ``FreeformTagTable.save``, frequencies rebuilt from the tags."""
    table = FreeformTagTable(tags_by_item={row["item_id"]: list(row["tags"])
                                           for row in read_jsonl(path)})
    table.rebuild_frequency()
    return table


def serialize_reviews(reviews: list[ReviewDecision]) -> str:
    return json.dumps([
        {"proposal_id": r.proposal_id, "decision": r.decision, "reasoning": r.reasoning}
        for r in reviews
    ], ensure_ascii=False)


def trie_lookup(trie: DescriptorTrie, tokens: list[int]) -> str | None:
    """The item whose full sequence is ``tokens``, or None."""
    node = trie.root
    for token in tokens:
        node = node.children.get(token)
        if node is None:
            return None
    return node.item_id


def reference_extract_json(raw: str):
    """The first balanced JSON object or array in ``raw``, found by scanning
    character by character for the bracket that closes the first opener;
    the oracle for ``protocol.extract_json``."""
    text = re.sub(r"```[a-zA-Z0-9_-]*\n?|```", "", raw)
    start = None
    for i, ch in enumerate(text):
        if ch in "{[":
            start = i
            break
    if start is None:
        raise ProtocolError("no JSON object or array found in response")
    opener = text[start]
    closer = "}" if opener == "{" else "]"
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth == 0:
                if ch != closer:
                    break
                try:
                    return json.loads(text[start:i + 1])
                except json.JSONDecodeError as exc:
                    raise ProtocolError(f"invalid JSON payload: {exc.msg}") from exc
    raise ProtocolError("unbalanced JSON in response")


def reference_splits_text(split: SplitDataset) -> str:
    """``splits.jsonl`` as one ``json.dumps`` per row dict writes it."""
    rows = (row for user_id in sorted(split.train) for row in (
        {"split": "train", "user_id": user_id, "item_ids": split.train[user_id]},
        {"split": "valid", "user_id": user_id, "item_id": split.valid[user_id]},
        {"split": "test", "user_id": user_id, "item_id": split.test[user_id]}))
    return "".join(json.dumps(row) + "\n" for row in rows)
