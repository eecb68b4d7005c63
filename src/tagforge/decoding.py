"""Semantic-ID decoding: descriptor trie, count-based sequence model, and
trie-constrained beam search.

The surrogate scorer is an order-m n-gram model with additive smoothing
fitted on train-split user histories flattened to token streams, a boundary
token between consecutive items, and the end-of-sequence token closing each
stream. It stands in for a trained sequence model at desk scale while
exercising the full decoding machinery exactly. Fitting counts every gram of
every stream in one pass (:meth:`SurrogateModel.observe_streams`), and each
item's tokens come from ``SemidTable.units``, built once per table.

Beam search and ``SurrogateModel.score_path`` read their step and EOS
scores from a table on the model, one entry per (trie node, context tail),
filled through ``SurrogateModel.logprob`` on first use. Every score is
therefore the float ``logprob`` gives, and a count of its calls counts
table misses.
An entry lists a node's non-terminal children by step logprob and its
terminal children by step plus EOS logprob, best first, each terminal with
the largest step and EOS logprob at or after it, so the search stops
scanning a list at the first child that can no longer reach the top
``beam_width`` (the threshold algorithm of Fagin, Lotem & Naor, PODS 2001);
every pruning test compares exact scores or their bounds strictly, so the
ranking and its scores are those of the unpruned search. Each level's live
beam and the final ranking are picked by sorting and slicing; with the
pruning, those lists hold tens of entries, where ``heapq.nsmallest`` costs
more than ``list.sort`` for the same result.
A critique is a smaller trie, not a branch in the search: its root holds
only the allowed level-1 children (:meth:`DescriptorTrie.narrowed`) and
shares every node below with the full trie. A request whose (root, context
tail, beam width) was decoded before is answered from a second table on the
model, which holds each finished ranking, so users who share a tail share
one search.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
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
        self._narrowed: dict[frozenset[int], TrieNode] = {}

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

    def narrowed(self, allowed: Iterable[int]) -> TrieNode:
        """A root holding only the ``allowed`` level-1 children, the same
        objects as :attr:`root`'s, so every node below, and its expansion
        entry, is shared. One root per distinct set, kept on the trie;
        threads that race on a set keep the first one stored."""
        key = frozenset(allowed)
        node = self._narrowed.get(key)
        if node is None:
            if not key:
                raise DecodingError("allowed level-1 token set is empty")
            children = self.root.children
            extra = key - children.keys()
            if extra:
                raise DecodingError(
                    f"allowed tokens not at level 1: {sorted(extra)}")
            node = self._narrowed.setdefault(key, TrieNode(
                {t: child for t, child in children.items() if t in key}))
        return node


def build_trie(table: SemidTable) -> DescriptorTrie:
    """Index every item's sequence (trailing EOS stripped)."""
    trie = DescriptorTrie()
    units = table.units
    for row in table.rows:
        trie.insert(units[row.item_id], row.item_id)
    return trie


# A step into a non-terminal child: (step logprob, token, child, child's
# context tail).
Step = tuple[float, int, TrieNode, tuple[int, ...]]
# A step into a terminal child: (step logprob, EOS logprob, top step, top
# EOS, token, item id), the tops being the largest step and the largest EOS
# logprob at or after it in its list.
Finish = tuple[float, float, float, float, int, str]
# A step into any child: (step logprob, child, child's context tail, EOS
# logprob after the child if it is terminal, else None).
Hop = tuple[float, TrieNode, tuple[int, ...], float | None]
# Both lists best-first, ties in token order: steps by step logprob
# descending, finishes by step + EOS logprob descending.
Expansion = tuple[list[Step], list[Finish], dict[int, Hop]]


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
        self._expansions: dict[tuple[TrieNode, tuple[int, ...]],
                               Expansion] = {}
        # (trie root or narrowed root, context tail, beam width) -> finished
        # ranking; filled by :func:`beam_decode`
        self._rankings: dict[tuple[TrieNode, tuple[int, ...], int],
                             list[tuple[str, float]]] = {}

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
        self._expansions.clear()
        self._rankings.clear()

    def logprob(self, token: int, context: tuple[int, ...]) -> float:
        """log P(token | last order-1 context tokens) under additive
        smoothing, ``-inf`` for probability 0. With alpha = 0 an unseen
        context falls back to the uniform distribution over the vocabulary.

        Computed from the counts on every call; beam search and
        :meth:`score_path` read it through the :meth:`expansions` table.
        """
        ctx = context[-(self.order - 1):] if self.order > 1 else ()
        total = self.context_totals.get(ctx, 0)
        row = self.counts.get(ctx)
        count = row.get(token, 0) if row else 0
        if self.alpha != 0.0:
            p = (count + self.alpha) / (total + self.alpha * self.vocab_size)
        elif total:
            p = count / total
        else:
            p = 1.0 / self.vocab_size
        return math.log(p) if p > 0 else -math.inf

    def expansions(self, node: TrieNode,
                   context: tuple[int, ...]) -> Expansion:
        """Every step out of trie ``node`` after ``context``, the tail of at
        most order-1 tokens that the model reads: a ``Step`` per
        non-terminal child, sorted by step logprob, a ``Finish`` per
        terminal child, sorted by step plus EOS logprob, both highest first
        and ties in token order, and a ``Hop`` per child by token, for
        :meth:`score_path`. A terminal carries the largest step and the
        largest EOS logprob at or after it in its list; rounded addition is
        monotone in each argument, so no terminal from there on finishes
        above ``(score + top step) + top EOS``.

        Filled on first use through :meth:`logprob`, so each number is the
        one it returns, and kept until the next :meth:`observe_streams`; this
        table and the rankings of :func:`beam_decode` are the model's only
        caches.
        An entry is stored only once built, so threads sharing the model
        never see a partial one. Since every history ends in the boundary
        token, below the first level (order 3) a context tail is fixed by
        the trie path, and one entry serves every request. Nodes key by
        identity, so several tries can share a model, and a narrowed root
        (:meth:`DescriptorTrie.narrowed`) is one more such root, with an
        entry of its own; a trie must not change once decoded.
        """
        key = (node, context)
        entry = self._expansions.get(key)
        if entry is None:
            keep = self.order - 1
            steps, ends, hops = [], [], {}
            for token, child in sorted(node.children.items()):
                next_ctx = (context + (token,))[-keep:] if keep else ()
                step = self.logprob(token, context)
                eos = None
                if child.item_id is None:
                    steps.append((step, token, child, next_ctx))
                else:
                    eos = self.logprob(self.eos_token, next_ctx)
                    ends.append((step, eos, token, child.item_id))
                hops[token] = (step, child, next_ctx, eos)
            # Python's sort is stable, reverse=True included.
            steps.sort(key=itemgetter(0), reverse=True)
            ends.sort(key=lambda end: end[0] + end[1], reverse=True)
            finishes = []
            top_step = top_eos = -math.inf
            for step, eos, token, item_id in reversed(ends):
                top_step, top_eos = max(top_step, step), max(top_eos, eos)
                finishes.append((step, eos, top_step, top_eos, token, item_id))
            finishes.reverse()
            entry = self._expansions[key] = (steps, finishes, hops)
        return entry

    def score_path(self, node: TrieNode, context: tuple[int, ...],
                   tokens: Sequence[int]) -> float:
        """:meth:`score_sequence` of ``tokens`` then EOS, for ``tokens`` the
        path from trie ``node`` to an item: the same numbers, read hop by hop
        from :meth:`expansions` and summed in the same order, so the same
        float, with each computed once per (trie node, context tail)."""
        keep = self.order - 1
        ctx, score, eos = context[-keep:] if keep else (), 0.0, None
        for token in tokens:
            step, node, ctx, eos = self.expansions(node, ctx)[2][token]
            score += step
        if eos is None:
            raise DecodingError(f"path {list(tokens)} does not end at an item")
        return score + eos

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
    ``allowed_level1`` the search starts from ``trie.narrowed(allowed_level1)``
    instead of ``trie.root``, so every returned item carries an allowed
    level-1 token. With ``beam_width`` at least the number of trie terminals
    the result equals exhaustive enumeration.

    A hypothesis is expanded by walking ``model.expansions`` for its node
    and context tail, so each score is computed once per (node, tail), not
    once per request. The search keeps two min-heaps of exact scores: the
    best ``beam_width`` live candidates of the current level and the best
    ``beam_width`` finished items of all levels. Once a heap is full, the
    scan of a best-first child list stops at the first child whose
    ``score + step`` (for a terminal, ``(score + top step) + top EOS``) is
    strictly below that heap's least score, and a terminal whose exact
    ``(score + step) + EOS`` is strictly below it is skipped. Rounded
    addition is monotone and ties are never cut, so the ranking and its
    scores are exactly those of the unpruned search, which expands the same
    live hypotheses and asks ``model.logprob`` as often. Each level's
    survivors and the final ranking are the head of the sorted candidates,
    ties broken by generated tokens and by item id.

    The search reads nothing of ``history`` but its last order-1 tokens, so
    its ranking is kept on the model under (the root searched, that tail,
    ``beam_width``) until the next :meth:`SurrogateModel.observe_streams`,
    and a request with the same key is answered from it without a search;
    each call returns a new list. The table holds at most one ranking per
    distinct key requested: on the demo world, 32 plain entries for 500 test
    users plus at most 128 critiqued ones per stage (32 tails x 4 level-1
    sections), and on the Sports decode benchmark at most 36 + 288. Two
    threads that miss on one key at once both search and store equal
    rankings, which is harmless.
    """
    if beam_width < 1:
        raise DecodingError("beam width must be >= 1")
    root = trie.root if allowed_level1 is None else trie.narrowed(allowed_level1)
    keep = model.order - 1
    tail = history[-keep:] if keep else ()
    key = (root, tail, beam_width)
    ranked = model._rankings.get(key)
    if ranked is None:
        ranked = model._rankings[key] = _search(model, tail, root, beam_width)
    return list(ranked)


def _search(model: SurrogateModel, tail: tuple[int, ...], root: TrieNode,
            beam_width: int) -> list[tuple[str, float]]:
    # Hypotheses carry only the context tail the model reads; live ones are
    # (-score, generated tokens, node, tail), finished ones (-score, item),
    # so that plain tuple order is the ranking and its tie-break. ``best``
    # and ``done`` hold the top scores of this level's live candidates and
    # of all finished items: a candidate strictly below a full heap's least
    # score has beam_width better ones and cannot rank.
    live = [(-0.0, (), root, tail)]
    finished: list[tuple[float, str]] = []
    done: list[float] = []
    while live:
        next_live = []
        best: list[float] = []
        for neg, gen, node, ctx in live:
            score = -neg
            steps, finishes, _ = model.expansions(node, ctx)
            for step, token, child, next_ctx in steps:
                total = score + step
                if len(best) < beam_width:
                    heapq.heappush(best, total)
                elif total < best[0]:
                    break
                else:
                    heapq.heapreplace(best, total)
                next_live.append((-total, gen + (token,), child, next_ctx))
            for step, eos, top_step, top_eos, token, item_id in finishes:
                if len(done) < beam_width:
                    total = (score + step) + eos
                    heapq.heappush(done, total)
                else:
                    if (score + top_step) + top_eos < done[0]:
                        break
                    total = (score + step) + eos
                    if total < done[0]:
                        continue
                    heapq.heapreplace(done, total)
                finished.append((-total, item_id))
        # Generated tokens differ between live hypotheses, so a tie on score
        # is broken there and two nodes are never compared.
        next_live.sort()
        live = next_live[:beam_width]
    finished.sort()
    return [(item_id, -neg) for neg, item_id in finished[:beam_width]]


def simulate_user(item_id: str, corpus: Corpus, table: SemidTable,
                  tree: VocabularyTree, mode: str = "oracle",
                  gateway: Gateway | None = None) -> set[int]:
    """Allowed level-1 tokens for critique-constrained decoding.

    Oracle mode returns the target's own level-1 token. LLM mode asks the
    simulator prompt and maps the returned section names back onto level-1
    tokens; an unparseable or refused answer, or one naming no section,
    falls back to the oracle's. Only sections that some item's semantic ID
    starts with are offered and accepted, since the decoder allows no other.
    """
    if mode not in ("oracle", "llm"):
        raise DecodingError(f"unknown simulator mode {mode!r}")
    row = table.row_of(item_id)
    if not row.path_names:
        raise DecodingError(f"{item_id}: no level-1 descriptor assigned")
    level1_nodes = tree.children_of(tree.root_id)
    token_by_name = {n.name: table.token_of[n.rule_id] for n in level1_nodes
                     if table.token_of.get(n.rule_id) in table.first_tokens}
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
