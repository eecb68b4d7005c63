"""Semantic-ID decoding: descriptor trie, count-based sequence model, and
(trie- and critique-constrained) beam search.

The surrogate scorer is an order-m n-gram model with additive smoothing
fitted on train-split user histories flattened to token streams, a boundary
token between consecutive items, and the end-of-sequence token closing each
stream. It stands in for a trained sequence model at desk scale while
exercising the full decoding machinery exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts, wire
from .assignment import BOS, EOS, SEP, SemidTable
from .corpus import Corpus, SplitDataset
from .gateway import AgentRole, Gateway
from .protocol import ProtocolError, parse_name_list
from .runs import write_json
from .vocab import VocabularyTree


class DecodingError(ValueError):
    pass


@dataclass
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    item_id: str | None = None


class DescriptorTrie:
    """Prefix index over full semantic-ID sequences (resolver included,
    EOS excluded). Exactly one terminal per item; the resolver design
    guarantees no terminal prefixes another."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.n_terminals = 0

    def insert(self, tokens: list[int], item_id: str) -> None:
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
    eos_token = table.special_tokens[f"special:{EOS}"]
    trie = DescriptorTrie()
    for row in table.rows:
        tokens = list(row.tokens)
        if tokens and tokens[-1] == eos_token:
            tokens = tokens[:-1]
        trie.insert(tokens, row.item_id)
    return trie


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

    def observe_stream(self, tokens: list[int]) -> None:
        self._logprob_rows.clear()
        m = self.order
        for i in range(m - 1, len(tokens)):
            ctx = tuple(tokens[i - m + 1:i])
            nxt = tokens[i]
            row = self.counts.setdefault(ctx, {})
            row[nxt] = row.get(nxt, 0) + 1
            self.context_totals[ctx] = self.context_totals.get(ctx, 0) + 1

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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
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


def item_unit(table: SemidTable, item_id: str) -> list[int]:
    """An item's tokens without the trailing EOS."""
    row = table.row_of(item_id)
    eos_token = table.special_tokens[f"special:{EOS}"]
    tokens = list(row.tokens)
    if tokens and tokens[-1] == eos_token:
        tokens = tokens[:-1]
    return tokens


def user_stream(table: SemidTable, item_ids: list[str],
                order: int) -> list[int]:
    """BOS padding, items joined by the boundary token, closed with EOS."""
    specials = table.special_tokens
    bos = specials[f"special:{BOS}"]
    sep = specials[f"special:{SEP}"]
    eos = specials[f"special:{EOS}"]
    stream = [bos] * max(1, order - 1)
    for i, item_id in enumerate(item_ids):
        if i:
            stream.append(sep)
        stream.extend(item_unit(table, item_id))
    stream.append(eos)
    return stream


def encode_history(table: SemidTable, item_ids: list[str],
                   order: int) -> tuple[int, ...]:
    """Decode-time context: the user's history ending in a boundary token."""
    specials = table.special_tokens
    bos = specials[f"special:{BOS}"]
    sep = specials[f"special:{SEP}"]
    context = [bos] * max(1, order - 1)
    for i, item_id in enumerate(item_ids):
        if i:
            context.append(sep)
        context.extend(item_unit(table, item_id))
    context.append(sep)
    return tuple(context)


def fit_surrogate(split: SplitDataset, table: SemidTable, order: int = 3,
                  alpha: float = 0.1) -> SurrogateModel:
    """Fit the n-gram scorer on train-split histories only."""
    model = SurrogateModel(order=order, alpha=alpha,
                           vocab_size=len(table.token_map),
                           eos_token=table.special_tokens[f"special:{EOS}"])
    users = sorted(split.train)
    if not users:
        raise DecodingError("empty training split")
    known = {row.item_id for row in table.rows}
    streams = 0
    for user_id in users:
        item_ids = [i for i in split.train[user_id] if i in known]
        if not item_ids:
            continue
        model.observe_stream(user_stream(table, item_ids, order))
        streams += 1
    if streams == 0:
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
    """
    if beam_width < 1:
        raise DecodingError("beam width must be >= 1")
    if allowed_level1 is not None:
        if not allowed_level1:
            raise DecodingError("allowed level-1 token set is empty")
        extra = allowed_level1 - trie.level1_tokens()
        if extra:
            raise DecodingError(f"allowed tokens not at level 1: {sorted(extra)}")
    # Hypotheses carry only the context tail the model reads.
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


def simulate_user(item_id: str, corpus: Corpus, table: SemidTable,
                  tree: VocabularyTree, mode: str = "oracle",
                  gateway: Gateway | None = None) -> set[int]:
    """Allowed level-1 tokens for critique-constrained decoding.

    Oracle mode returns the target's own level-1 token. LLM mode asks the
    simulator prompt and maps the returned section names back onto level-1
    tokens; an unparseable answer, or one naming no section, falls back to
    the oracle's.
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
    except ProtocolError:
        return oracle
    return {token_by_name[n] for n in names if n in token_by_name} or oracle
