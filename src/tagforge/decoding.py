"""Semantic-ID decoding: descriptor trie, count-based sequence model, and
(trie- and critique-constrained) beam search.

The surrogate scorer is an order-m n-gram model with additive smoothing
fitted on train-split user histories flattened to token streams, a boundary
token between consecutive items, and the end-of-sequence token closing each
stream. It stands in for a trained sequence model at desk scale while
exercising the full decoding machinery exactly. Fitting counts every gram of
every stream in one pass (:meth:`SurrogateModel.observe_streams`), and each
item's tokens come from ``SemidTable.units``, built once per table.

Beam search reads its step and EOS scores from a table on the model, one
entry per (trie node, context tail), filled through
``SurrogateModel.logprob`` on first use. Every score is therefore the float
``logprob`` gives, and a count of ``logprob`` calls counts table misses.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import prompts, wire
from .assignment import BOS, EOS, SEP, SemidTable
from .corpus import Corpus, SplitDataset
from .gateway import AgentRole, BackendRefusalError, Gateway
from .protocol import ProtocolError, parse_name_list
from .runs import read_json, write_json
from .vocab import VocabularyTree


class DecodingError(ValueError):
    pass


@dataclass(eq=False)
class TrieNode:
    """Hashed and compared by identity, so a node keys
    :meth:`SurrogateModel.expansions` for whichever trie it belongs to."""

    children: dict[int, "TrieNode"] = field(default_factory=dict)
    item_id: str | None = None


class DescriptorTrie:
    """Prefix index over full semantic-ID sequences (resolver included,
    EOS excluded). Exactly one terminal per item; the resolver design
    guarantees no terminal prefixes another."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.n_terminals = 0

    def insert(self, tokens: Sequence[int], item_id: str) -> None:
        node = self.root
        for token in tokens:
            node = node.children.setdefault(token, TrieNode())
        if node.item_id is not None:
            raise DecodingError(
                f"duplicate token sequence for {item_id!r} and {node.item_id!r} "
                "(unresolved collision upstream)")
        node.item_id = item_id
        self.n_terminals += 1

    def level1_tokens(self) -> set[int]:
        return set(self.root.children)


def build_trie(table: SemidTable) -> DescriptorTrie:
    """Index every item's sequence (trailing EOS stripped)."""
    trie = DescriptorTrie()
    units = table.units
    for row in table.rows:
        trie.insert(units[row.item_id], row.item_id)
    return trie


# (token, child, step logprob, child's context tail, EOS logprob or None)
Expansion = tuple[int, TrieNode, float, tuple[int, ...], float | None]


def _log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


class SurrogateModel:
    """Order-m additive-smoothing n-gram scorer over semantic-ID streams."""

    FORMAT_VERSION = 1

    def __init__(self, order: int = 3, alpha: float = 0.1,
                 vocab_size: int = 0, eos_token: int = 1):
        if order < 1:
            raise DecodingError("order must be >= 1")
        if alpha < 0:
            raise DecodingError("alpha must be >= 0")
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self.eos_token = eos_token
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self.context_totals: dict[tuple[int, ...], int] = {}
        # context -> ({observed token: logprob}, logprob of any unseen token)
        self._logprob_rows: dict[tuple[int, ...],
                                 tuple[dict[int, float], float]] = {}
        self._expansions: dict[tuple[TrieNode, tuple[int, ...]],
                               list[Expansion]] = {}

    def observe_streams(self, streams: Iterable[Sequence[int]]) -> None:
        """Count every order-m gram of every stream in one pass.

        The grams of all streams are tallied in one ``Counter``, fed by
        ``zip`` over the stream shifted 0..m-1 places, and only then added
        to ``counts`` and ``context_totals``. A ``Counter`` keeps first
        occurrence order, so every context, and every token within a row,
        lands where counting the streams token by token would put it.
        """
        m = self.order
        grams: Counter[tuple[int, ...]] = Counter()
        for tokens in streams:
            grams.update(zip(*[tokens[k:] for k in range(m)]))
        counts, totals = self.counts, self.context_totals
        for gram, n in grams.items():
            ctx, nxt = gram[:-1], gram[-1]
            row = counts.get(ctx)
            if row is None:
                row = counts[ctx] = {}
            row[nxt] = row.get(nxt, 0) + n
            totals[ctx] = totals.get(ctx, 0) + n
        self._logprob_rows.clear()
        self._expansions.clear()

    def _smoothed(self, count: int, total: int) -> float:
        if self.alpha == 0.0:
            if total == 0:
                return 1.0 / self.vocab_size
            return count / total
        return (count + self.alpha) / (total + self.alpha * self.vocab_size)

    def logprob(self, token: int, context: tuple[int, ...]) -> float:
        """log P(token | last order-1 context tokens) under additive
        smoothing, ``-inf`` for probability 0. With alpha = 0 an unseen
        context falls back to the uniform distribution over the vocabulary.

        Served from a per-context row built on first use: one entry per
        token observed after the context and one value shared by every
        unseen token, so a row is as sparse as the counts behind it.
        """
        ctx = context[-(self.order - 1):] if self.order > 1 else ()
        row = self._logprob_rows.get(ctx)
        if row is None:
            total = self.context_totals.get(ctx, 0)
            row = ({t: _log(self._smoothed(c, total))
                    for t, c in self.counts.get(ctx, {}).items()},
                   _log(self._smoothed(0, total)))
            self._logprob_rows[ctx] = row
        seen, unseen = row
        return seen.get(token, unseen)

    def expansions(self, node: TrieNode,
                   context: tuple[int, ...]) -> list[Expansion]:
        """Every step out of trie ``node`` after ``context``, the tail of at
        most order-1 tokens that the model reads: one
        ``(token, child, step logprob, child's context tail, EOS logprob or
        None)`` per child in token order, the EOS logprob only for a
        terminal child.

        Filled on first use through :meth:`logprob`, so each number is the
        one it returns, and kept until the next :meth:`observe_streams`.
        Since every history ends in the boundary token, below the first
        level (order 3) a context tail is fixed by the trie path, and one
        entry serves every request. Nodes key by identity, so several tries
        can share a model; a trie must not change once decoded.
        """
        key = (node, context)
        entry = self._expansions.get(key)
        if entry is None:
            keep = self.order - 1
            entry = []
            for token, child in sorted(node.children.items()):
                next_ctx = (context + (token,))[-keep:] if keep else ()
                eos = (self.logprob(self.eos_token, next_ctx)
                       if child.item_id is not None else None)
                entry.append((token, child, self.logprob(token, context),
                              next_ctx, eos))
            self._expansions[key] = entry
        return entry

    def score_sequence(self, context: tuple[int, ...],
                       tokens: list[int]) -> float:
        """Cumulative log-probability of ``tokens`` continuing ``context``."""
        ctx = tuple(context)
        score = 0.0
        for token in tokens:
            score += self.logprob(token, ctx)
            ctx = ctx + (token,)
        return score

    def to_json(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocab_size": self.vocab_size,
            "eos_token": self.eos_token,
            "counts": [
                {"context": list(ctx),
                 "next": {str(t): c for t, c in sorted(row.items())}}
                for ctx, row in sorted(self.counts.items())
            ],
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SurrogateModel":
        payload = read_json(path)
        if payload.get("format_version") != cls.FORMAT_VERSION:
            raise DecodingError(
                f"unsupported model format {payload.get('format_version')!r}")
        model = cls(order=payload["order"], alpha=payload["alpha"],
                    vocab_size=payload["vocab_size"],
                    eos_token=payload.get("eos_token", 1))
        for row in payload["counts"]:
            ctx = tuple(row["context"])
            model.counts[ctx] = {int(t): c for t, c in row["next"].items()}
            model.context_totals[ctx] = sum(model.counts[ctx].values())
        return model


def user_stream(table: SemidTable, item_ids: list[str],
                order: int) -> list[int]:
    """BOS padding, items joined by the boundary token, closed with EOS."""
    specials = table.special_tokens
    sep = specials[f"special:{SEP}"]
    units = table.units
    stream = [specials[f"special:{BOS}"]] * max(1, order - 1)
    for i, item_id in enumerate(item_ids):
        if i:
            stream.append(sep)
        stream.extend(units[item_id])
    stream.append(specials[f"special:{EOS}"])
    return stream


def encode_history(table: SemidTable, item_ids: list[str],
                   order: int) -> tuple[int, ...]:
    """Decode-time context: the user's stream with its closing EOS swapped
    for the boundary token, so the next item is predicted after it."""
    stream = user_stream(table, item_ids, order)
    stream[-1] = table.special_tokens[f"special:{SEP}"]
    return tuple(stream)


def fit_surrogate(split: SplitDataset, table: SemidTable, order: int = 3,
                  alpha: float = 0.1) -> SurrogateModel:
    """Fit the n-gram scorer on train-split histories only."""
    model = SurrogateModel(order=order, alpha=alpha,
                           vocab_size=len(table.token_map),
                           eos_token=table.special_tokens[f"special:{EOS}"])
    if not split.train:
        raise DecodingError("empty training split")
    known = table.units
    histories = ([i for i in split.train[user_id] if i in known]
                 for user_id in sorted(split.train))
    model.observe_streams(user_stream(table, item_ids, order)
                          for item_ids in histories if item_ids)
    # Every stream holds at least one order-m gram, so no counts means no
    # stream.
    if not model.counts:
        raise DecodingError("no train history maps to semantic IDs")
    return model


def beam_decode(model: SurrogateModel, history: tuple[int, ...],
                trie: DescriptorTrie, beam_width: int,
                allowed_level1: set[int] | None = None) -> list[tuple[str, float]]:
    """Trie-constrained beam search; returns (item_id, score) ranked.

    Scores are pure cumulative log-probabilities (no length normalization);
    hypotheses finalize when the trie terminal takes its EOS step. With
    ``allowed_level1`` the first generated token is restricted to that set,
    so every returned item carries an allowed level-1 token. With
    ``beam_width`` at least the number of trie terminals the result equals
    exhaustive enumeration.

    A hypothesis is expanded by walking ``model.expansions`` for its node
    and context tail, so each score is computed once per (node, tail), not
    once per request.
    """
    if beam_width < 1:
        raise DecodingError("beam width must be >= 1")
    if allowed_level1 is not None:
        if not allowed_level1:
            raise DecodingError("allowed level-1 token set is empty")
        extra = allowed_level1 - trie.level1_tokens()
        if extra:
            raise DecodingError(f"allowed tokens not at level 1: {sorted(extra)}")
    # Hypotheses carry only the context tail the model reads; live ones are
    # (-score, generated tokens, node, tail), finished ones (-score, item),
    # so that plain tuple order is the ranking and its tie-break.
    keep = model.order - 1
    live = [(-0.0, (), trie.root, history[-keep:] if keep else ())]
    finished: list[tuple[float, str]] = []
    allowed = allowed_level1
    while live:
        next_live = []
        for neg, gen, node, ctx in live:
            score = -neg
            for token, child, step, next_ctx, eos in model.expansions(node, ctx):
                if allowed is not None and token not in allowed:
                    continue
                if eos is None:
                    next_live.append((-(score + step), gen + (token,), child,
                                      next_ctx))
                else:
                    finished.append((-((score + step) + eos), child.item_id))
        live = heapq.nsmallest(beam_width, next_live)
        allowed = None
    return [(item_id, -neg)
            for neg, item_id in heapq.nsmallest(beam_width, finished)]


def simulate_user(item_id: str, corpus: Corpus, table: SemidTable,
                  tree: VocabularyTree, mode: str = "oracle",
                  gateway: Gateway | None = None) -> set[int]:
    """Allowed level-1 tokens for critique-constrained decoding.

    Oracle mode returns the target's own level-1 token. LLM mode asks the
    simulator prompt and maps the returned section names back onto level-1
    tokens; an unparseable or refused answer, or one naming no section,
    falls back to the oracle's.
    """
    if mode not in ("oracle", "llm"):
        raise DecodingError(f"unknown simulator mode {mode!r}")
    row = table.row_of(item_id)
    if not row.path_names:
        raise DecodingError(f"{item_id}: no level-1 descriptor assigned")
    level1_nodes = tree.children_of(tree.root_id)
    token_by_name = {n.name: table.token_of[n.rule_id] for n in level1_nodes
                     if n.rule_id in table.token_of}
    oracle = {token_by_name[row.path_names[0]]}
    if mode == "oracle":
        return oracle
    if gateway is None:
        raise DecodingError("llm mode requires a gateway")
    prompt = prompts.render_prompt(prompts.USER_SIMULATOR, {
        "target_text": wire.flatten(corpus.get(item_id).prompt_text()),
        "level1_names_text": wire.names_text(sorted(token_by_name)),
    })
    try:
        names = gateway.complete_parsed(AgentRole.ARCHITECT, prompt,
                                        prompts.USER_SIMULATOR, parse_name_list)
    except (ProtocolError, BackendRefusalError):
        return oracle
    return {token_by_name[n] for n in names if n in token_by_name} or oracle
