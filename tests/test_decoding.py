from __future__ import annotations

import json
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge.assignment import AssignmentRecord, SemidRow, SemidTable, export_semids, resolve_collisions
from tagforge.corpus import SplitDataset
from tagforge.decoding import (DecodingError, DescriptorTrie, SurrogateModel,
                               beam_decode, build_trie, encode_history,
                               fit_surrogate, simulate_user, user_stream)
from tagforge.gateway import AgentRole, BackendRefusalError, Gateway
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import make_interactions, make_world
from tagforge.corpus import last_out_split
from tagforge.vocab import DescriptorNode, VocabularyTree

from conftest import FaultBackend, make_gateway
from oracles import (enumerate_rank, reference_beam_decode,
                     reference_observe_stream, surrogate_prob, trie_lookup)


def tiny_table() -> SemidTable:
    token_map = {0: "special:<bos>", 1: "special:<eos>", 2: "special:<sep>",
                 3: "rule_aaaaaaaa", 4: "rule_bbbbbbbb", 5: "rule_cccccccc",
                 6: "rule_dddddddd", 7: "resolver:0"}
    rows = [SemidRow("i1", [3, 5, 7, 1], ["A", "C"]),
            SemidRow("i2", [4, 6, 7, 1], ["B", "D"])]
    return SemidTable(rows=rows, token_map=token_map)


def test_build_trie_two_disjoint_items():
    table = tiny_table()
    trie = build_trie(table)
    assert trie.n_terminals == 2
    assert trie_lookup(trie, [3, 5, 7]) == "i1"
    assert trie_lookup(trie, [4, 6, 7]) == "i2"
    assert trie_lookup(trie, [3, 6, 7]) is None
    assert trie.level1_tokens() == {3, 4}


def test_build_trie_rejects_duplicate_sequences():
    table = tiny_table()
    table = SemidTable(rows=table.rows + [SemidRow("i3", [3, 5, 7, 1], ["A", "C"])],
                       token_map=table.token_map)
    with pytest.raises(DecodingError, match="duplicate"):
        build_trie(table)


def test_trie_lookup_bijection_full_corpus(small_semids):
    _, _, _, table = small_semids
    trie = build_trie(table)
    assert trie.n_terminals == len(table.rows)
    for row in table.rows:
        assert trie_lookup(trie, row.tokens[:-1]) == row.item_id


def test_trie_level1_fanout_sixteen():
    # Reference shape: a 16-way top level shows up as 16 first tokens.
    tree = VocabularyTree(root_items={f"i{k}" for k in range(16)})
    records = []
    for k in range(16):
        name = f"section{k:02d}"
        rid = tree.fresh_rule_id(tree.root_id, name)
        tree.add_child(tree.root_id, DescriptorNode(
            rule_id=rid, name=name,
            description=f"{name}: INCLUDES: x. EXCLUDES: y.",
            parent=tree.root_id, depth=1, items={f"i{k}"}))
        records.append(AssignmentRecord(item_id=f"i{k}", path=(rid,)))
    table = export_semids(resolve_collisions(records), tree)
    trie = build_trie(table)
    assert len(trie.level1_tokens()) == 16


def test_surrogate_hand_count_single_transition():
    table = tiny_table()
    split = SplitDataset(train={"u1": ["i1", "i2"]}, valid={}, test={})
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    # Stream: [0,0] 3 5 7 [2] 4 6 7 [1]; the boundary context after i1 is
    # (resolver, sep) and its only observed successor is i2's first token.
    ctx = (7, 2)
    vocab = 8
    expected_top = (1 + 0.1) / (1 + 0.1 * vocab)
    assert model.logprob(4, ctx) == pytest.approx(math.log(expected_top))
    for token in range(vocab):
        if token != 4:
            assert model.logprob(token, ctx) == \
                pytest.approx(math.log(0.1 / (1 + 0.1 * vocab)))
    assert surrogate_prob(model, 4, ctx) == pytest.approx(expected_top)
    assert max(range(vocab), key=lambda t: model.logprob(t, ctx)) == 4


def test_surrogate_alpha_zero_uniform_fallback():
    table = tiny_table()
    split = SplitDataset(train={"u1": ["i1", "i2"]}, valid={}, test={})
    model = fit_surrogate(split, table, order=3, alpha=0.0)
    unseen = (6, 6)
    for token in range(8):
        assert model.logprob(token, unseen) == pytest.approx(math.log(1 / 8))


def test_surrogate_distributions_normalize(small_semids):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=40, seed=3))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    rng = random.Random(5)
    vocab = list(table.token_map)
    for _ in range(100):
        ctx = (rng.choice(vocab), rng.choice(vocab))
        total = sum(math.exp(model.logprob(t, ctx)) for t in vocab)
        assert abs(total - 1.0) < 1e-9


def _expected_logprob(model: SurrogateModel, token: int, ctx: tuple) -> float:
    p = surrogate_prob(model, token, ctx)
    return math.log(p) if p > 0 else -math.inf


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 4), alpha=st.sampled_from([0.0, 0.1]),
       first=st.lists(st.lists(st.integers(0, 4), max_size=12), min_size=1,
                      max_size=4),
       later=st.lists(st.lists(st.integers(0, 5), max_size=12), min_size=1,
                      max_size=3),
       queries=st.lists(st.tuples(st.integers(0, 5),
                                  st.lists(st.integers(0, 5), max_size=5)),
                        min_size=1, max_size=30))
def test_logprob_equals_log_of_prob(order, alpha, first, later, queries):
    # Token 5 never occurs in ``first``: contexts holding it are unseen (the
    # uniform fallback at alpha 0) and it is an unseen token in seen contexts.
    vocab = 6
    model = SurrogateModel(order=order, alpha=alpha, vocab_size=vocab)
    for stream in first:
        model.observe_streams([stream])
    seen_ctx = next(iter(model.counts), ())
    queries = queries + [(5, list(seen_ctx)), (5, [5] * (order - 1))]
    for token, ctx in queries:
        assert model.logprob(token, tuple(ctx)) == \
            _expected_logprob(model, token, tuple(ctx))
    for stream in later:
        model.observe_streams([stream])
    fresh = SurrogateModel(order=order, alpha=alpha, vocab_size=vocab)
    for stream in first + later:
        fresh.observe_streams([stream])
    for token, ctx in queries:
        expected = _expected_logprob(fresh, token, tuple(ctx))
        assert model.logprob(token, tuple(ctx)) == expected
        assert fresh.logprob(token, tuple(ctx)) == expected


_streams = st.lists(st.lists(st.integers(0, 6), max_size=12), max_size=4)


def _count_layout(model: SurrogateModel) -> tuple[list, list]:
    """The counts in the key order of the model and of each row."""
    return ([(ctx, list(row.items())) for ctx, row in model.counts.items()],
            list(model.context_totals.items()))


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 4), held=_streams, streams=_streams,
       queries=st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=4))
def test_observe_streams_equals_the_token_by_token_count(order, held, streams,
                                                         queries):
    # The model already holds the counts of ``held`` and has logprob rows for
    # ``queries`` when the streams under test arrive, through an iterator.
    model = SurrogateModel(order=order, vocab_size=7)
    reference = SurrogateModel(order=order, vocab_size=7)
    model.observe_streams(held)
    for stream in held:
        reference_observe_stream(reference, stream)
    for ctx in queries:
        model.logprob(0, tuple(ctx))
    model.observe_streams(iter(streams))
    for stream in streams:
        reference_observe_stream(reference, stream)
    assert _count_layout(model) == _count_layout(reference)
    for ctx in queries:
        for token in range(7):
            assert model.logprob(token, tuple(ctx)) == \
                reference.logprob(token, tuple(ctx))


def test_fit_writes_the_model_of_the_token_by_token_count(decode_setup, tmp_path):
    _, _, _, table, split, _, _ = decode_setup
    known = {row.item_id for row in table.rows}
    reference = SurrogateModel(order=3, alpha=0.1, vocab_size=len(table.token_map),
                               eos_token=table.special_tokens["special:<eos>"])
    for user_id in sorted(split.train):
        item_ids = [i for i in split.train[user_id] if i in known]
        if item_ids:
            reference_observe_stream(reference, user_stream(table, item_ids, 3))
    fit_surrogate(split, table, order=3, alpha=0.1).save(tmp_path / "fit.bin")
    reference.save(tmp_path / "reference.bin")
    assert (tmp_path / "fit.bin").read_bytes() == \
        (tmp_path / "reference.bin").read_bytes()


def _planted_table(world) -> SemidTable:
    """Semantic IDs over the planted paths: a token per category name, then a
    resolver rank among the items sharing the path, then EOS."""
    token_map = {0: "special:<bos>", 1: "special:<eos>", 2: "special:<sep>"}
    token_of: dict[str, int] = {}
    ranks: dict[tuple[str, ...], int] = {}
    rows = []
    for item_id, path in sorted(world.true_path.items()):
        ranks[path] = ranks.get(path, -1) + 1
        names = [*path, f"resolver:{ranks[path]}"]
        for name in names:
            if name not in token_of:
                token_of[name] = len(token_map)
                token_map[len(token_map)] = name
        rows.append(SemidRow(item_id, [token_of[n] for n in names] + [1],
                             list(path)))
    return SemidTable(rows=rows, token_map=token_map)


def test_fit_surrogate_memory_per_user():
    # 4,000 users over a 500-item world. The counts hold under 2,000 grams,
    # so the traced peak of the fit is about 100 B per user; holding every
    # user's stream at once (a list of 4,000 token lists) peaks at about
    # 340 B per user.
    world = make_world(branching=(4, 4), n_items=500, seed=3)
    split = last_out_split(make_interactions(world, n_users=4000, seed=4))
    table = _planted_table(world)
    tracemalloc.start()
    try:
        fit_surrogate(split, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(split.train) < 200, f"{peak / len(split.train):.0f} B/user"


def test_surrogate_save_load_round_trip(tmp_path):
    table = tiny_table()
    split = SplitDataset(train={"u1": ["i1", "i2"]}, valid={}, test={})
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = SurrogateModel.load(path)
    assert loaded.counts == model.counts
    assert loaded.eos_token == model.eos_token
    assert loaded.logprob(4, (7, 2)) == model.logprob(4, (7, 2))


def test_surrogate_rejects_wrong_format_version(tmp_path):
    path = tmp_path / "model.bin"
    path.write_text('{"format_version": 99}')
    with pytest.raises(DecodingError, match="format"):
        SurrogateModel.load(path)


@pytest.fixture(scope="module")
def decode_setup(small_semids):
    world, tree, records, table = small_semids
    split = last_out_split(make_interactions(world, n_users=60, seed=9))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    trie = build_trie(table)
    return world, tree, records, table, split, model, trie


def test_beam_full_width_matches_enumeration(decode_setup):
    world, _, _, table, split, model, trie = decode_setup
    big = trie.n_terminals + 10
    for user_id in sorted(split.test)[:10]:
        history = encode_history(table, split.train[user_id], model.order)
        beam = beam_decode(model, history, trie, beam_width=big)
        oracle = enumerate_rank(model, history, table)
        assert [b[0] for b in beam] == [o[0] for o in oracle]
        for (bi, bs), (oi, os) in zip(beam, oracle):
            assert abs(bs - os) < 1e-12


def test_beam_scores_non_increasing(decode_setup):
    _, _, _, table, split, model, trie = decode_setup
    user_id = sorted(split.test)[0]
    history = encode_history(table, split.train[user_id], model.order)
    for width in (1, 5, 20):
        ranked = beam_decode(model, history, trie, beam_width=width)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert len(ranked) <= width


def test_constrained_decode_hard_level1_guarantee(decode_setup):
    world, _, _, table, split, model, trie = decode_setup
    for user_id in sorted(split.test)[:10]:
        target = split.test[user_id]
        allowed = {table.row_of(target).tokens[0]}
        history = encode_history(table, split.train[user_id], model.order)
        ranked = beam_decode(model, history, trie, beam_width=20,
                             allowed_level1=allowed)
        assert ranked
        for item_id, _ in ranked:
            assert table.row_of(item_id).tokens[0] in allowed


def test_constrained_equals_filtered_enumeration(decode_setup):
    _, _, _, table, split, model, trie = decode_setup
    user_id = sorted(split.test)[3]
    target = split.test[user_id]
    allowed = {table.row_of(target).tokens[0]}
    history = encode_history(table, split.train[user_id], model.order)
    big = trie.n_terminals + 10
    constrained = beam_decode(model, history, trie, beam_width=big,
                              allowed_level1=allowed)
    oracle = enumerate_rank(model, history, table, allowed_level1=allowed)
    assert [c[0] for c in constrained] == [o[0] for o in oracle]


@pytest.mark.parametrize("order", [1, 3])
def test_beam_reads_only_the_context_tail(decode_setup, order):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=order, alpha=0.1)
    big = trie.n_terminals + 10
    for user_id in sorted(split.test)[:5]:
        history = encode_history(table, split.train[user_id], order)
        tail = history[-(order - 1):] if order > 1 else ()
        for width in (5, big):
            ranked = beam_decode(model, history, trie, width)
            assert ranked == beam_decode(model, tail, trie, width)
        assert ranked == enumerate_rank(model, history, table)


def _decode_requests(table, split, trie, order, n_users=6):
    """(history, beam width, allowed level-1 set) for a few test users: every
    width in 1, 5, 20 and full, unconstrained and critiqued to the target's
    own level-1 token."""
    requests = []
    for user_id in sorted(split.test)[:n_users]:
        history = encode_history(table, split.train[user_id], order)
        critique = {table.row_of(split.test[user_id]).tokens[0]}
        for width in (1, 5, 20, trie.n_terminals):
            for allowed in (None, critique):
                requests.append((history, width, allowed))
    return requests


def _assert_matches_reference(model, trie, requests):
    for history, width, allowed in requests:
        assert beam_decode(model, history, trie, width, allowed) == \
            reference_beam_decode(model, history, trie, width, allowed)


def _count_calls(monkeypatch, name):
    """Record the arguments of every ``SurrogateModel.<name>`` call."""
    calls = []
    method = getattr(SurrogateModel, name)
    monkeypatch.setattr(SurrogateModel, name,
                        lambda self, *args: calls.append(args) or method(self, *args))
    return calls


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_beam_equals_reference_decoder(decode_setup, order, alpha, monkeypatch):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=order, alpha=alpha)
    requests = _decode_requests(table, split, trie, order)
    _assert_matches_reference(model, trie, requests)
    # On a warm table the decoder asks the scorer nothing.
    calls = _count_calls(monkeypatch, "logprob")
    for history, width, allowed in requests:
        beam_decode(model, history, trie, width, allowed)
    assert calls == []
    monkeypatch.undo()
    _assert_matches_reference(model, trie, requests)
    # A longer history with the same context tail is answered from the
    # ranking table, without a search.
    keep = order - 1
    expected = [reference_beam_decode(model, history, trie, width, allowed)
                for history, width, allowed in requests]
    calls = _count_calls(monkeypatch, "expansions")
    for (history, width, allowed), ranked in zip(requests, expected):
        tail = history[-keep:] if keep else ()
        other = history[:1] + history + tail
        assert beam_decode(model, other, trie, width, allowed) == ranked
    assert calls == []


def _assert_best_first(model):
    """Every expansion entry holds each child of its node once, with the
    scores ``logprob`` gives, steps by step logprob and finishes by step
    plus EOS logprob, both descending with ties in token order, each
    terminal's tops are the largest step and the largest EOS at or after
    it, and the hop of each token repeats its list entry."""
    for (node, ctx), (steps, finishes, hops) in model._expansions.items():
        keep = model.order - 1
        assert sorted([e[1] for e in steps] + [e[4] for e in finishes]) == \
            sorted(node.children)
        for step, token, child, next_ctx in steps:
            assert child is node.children[token] and child.item_id is None
            assert step == model.logprob(token, ctx)
            assert next_ctx == ((ctx + (token,))[-keep:] if keep else ())
        for step, eos, _, _, token, item_id in finishes:
            assert item_id is not None
            assert item_id == node.children[token].item_id
            assert step == model.logprob(token, ctx)
            tail = (ctx + (token,))[-keep:] if keep else ()
            assert eos == model.logprob(model.eos_token, tail)
        for order in ([(-e[0], e[1]) for e in steps],
                      [(-(e[0] + e[1]), e[4]) for e in finishes]):
            assert order == sorted(order)
        for k, (_, _, top_step, top_eos, _, _) in enumerate(finishes):
            assert top_step == max(e[0] for e in finishes[k:])
            assert top_eos == max(e[1] for e in finishes[k:])
        assert hops == (
            {token: (step, child, next_ctx, None)
             for step, token, child, next_ctx in steps}
            | {token: (step, node.children[token],
                       (ctx + (token,))[-keep:] if keep else (), eos)
               for step, eos, _, _, token, _ in finishes})


def test_expansions_are_best_first_with_suffix_bounds(decode_setup):
    _, _, _, table, split, _, trie = decode_setup
    for order in (1, 3):
        for alpha in (0.0, 0.1):
            model = fit_surrogate(split, table, order=order, alpha=alpha)
            for history, width, allowed in _decode_requests(table, split,
                                                            trie, order, 3):
                beam_decode(model, history, trie, width, allowed)
            assert any(len(e[1]) > 1 for e in model._expansions.values())
            _assert_best_first(model)


@pytest.fixture(scope="module")
def filled_models(decode_setup):
    """A model per (order, alpha), its expansion table filled by full
    searches from a few users' histories."""
    _, _, _, table, split, _, trie = decode_setup
    models = {}
    for order in (1, 2, 3, 4):
        for alpha in (0.0, 0.1):
            model = models[order, alpha] = fit_surrogate(split, table, order,
                                                         alpha)
            for user_id in sorted(split.test)[:3]:
                history = encode_history(table, split.train[user_id], order)
                beam_decode(model, history, trie, trie.n_terminals)
    return models


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 4), alpha=st.sampled_from([0.0, 0.1]),
       scores=st.lists(st.one_of(st.floats(-60.0, 0.0),
                                 st.just(-math.inf)), min_size=1, max_size=4))
def test_a_terminal_bound_holds_every_later_terminal(filled_models, order,
                                                     alpha, scores):
    """``(s + top step) + top EOS`` of a terminal is at least the exact
    ``(s + step) + EOS`` of it and of every terminal after it, for any
    score ``s`` a hypothesis can carry; alpha 0 gives ``-inf`` logprobs."""
    model = filled_models[order, alpha]
    finish_lists = [e[1] for e in model._expansions.values() if e[1]]
    assert any(len(f) > 1 for f in finish_lists)
    if alpha == 0.0 and order > 1:
        assert any(-math.inf in f[:2] for fs in finish_lists for f in fs)
    for finishes in finish_lists:
        for i, (_, _, top_step, top_eos, _, _) in enumerate(finishes):
            for s in scores:
                bound = (s + top_step) + top_eos
                for step, eos, _, _, _, _ in finishes[i:]:
                    assert bound >= (s + step) + eos


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_score_path_equals_score_sequence(decode_setup, order, alpha,
                                          monkeypatch):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=order, alpha=alpha)
    histories = [encode_history(table, split.train[user_id], order)
                 for user_id in sorted(split.test)[:4]]
    for history in histories:
        for row in table.rows:
            assert model.score_path(trie.root, history,
                                    table.units[row.item_id]) == \
                model.score_sequence(history, row.tokens)
    _assert_best_first(model)
    # A second pass reads every number from the expansion table.
    calls = _count_calls(monkeypatch, "logprob")
    for history in histories:
        for item_id, units in table.units.items():
            model.score_path(trie.root, history, units)
    assert calls == []
    monkeypatch.undo()
    units = next(iter(table.units.values()))
    with pytest.raises(DecodingError, match="does not end at an item"):
        model.score_path(trie.root, histories[0], units[:-1])


def test_a_huge_beam_width_allocates_nothing_for_it(decode_setup):
    _, _, _, table, split, model, trie = decode_setup
    history = encode_history(table, split.train[sorted(split.test)[1]],
                             model.order)
    full = reference_beam_decode(model, history, trie, trie.n_terminals)
    tracemalloc.start()
    try:
        ranked = beam_decode(model, history, trie, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked == full
    assert peak < 8 * 2**20


@st.composite
def _random_decode_worlds(draw):
    """(item token sequences, streams, history, critique) over tokens 0 BOS,
    1 EOS, 2 boundary, 3-5 descriptors and 6 up collision resolvers, so no
    terminal prefixes another while a node may have both kinds of child."""
    paths = draw(st.lists(st.lists(st.integers(3, 5), min_size=1,
                                   max_size=3).map(tuple),
                          min_size=1, max_size=8))
    seen = Counter()
    items = []
    for path in paths:
        items.append(path + (6 + seen[path],))
        seen[path] += 1
    pick = st.integers(0, len(items) - 1)
    streams = draw(st.lists(st.lists(pick, min_size=1, max_size=5),
                            max_size=5))
    if draw(st.booleans()):
        # Every item once, twice over: equal counts and exact score ties.
        streams += [[k] for k in range(len(items))] * 2
    return (items, streams, draw(st.lists(pick, max_size=4)),
            draw(st.sets(st.integers(3, 5), min_size=1)))


def _token_stream(items, picks, order):
    stream = [0] * max(1, order - 1)
    for k, pick in enumerate(picks):
        if k:
            stream.append(2)
        stream.extend(items[pick])
    return stream + [1]


def _logprob_calls(model, decode, *args):
    """``decode(model, *args)`` and the number of ``model.logprob`` calls
    it made."""
    calls = []
    model.logprob = lambda token, ctx: (calls.append(token)
                                        or SurrogateModel.logprob(model, token, ctx))
    try:
        return decode(model, *args), len(calls)
    finally:
        del model.logprob


@settings(max_examples=150, deadline=None)
@given(world=_random_decode_worlds(), order=st.integers(1, 4),
       alpha=st.sampled_from([0.0, 0.1]))
def test_pruned_beam_equals_reference_on_random_tries(world, order, alpha):
    items, streams, picks, critique = world
    trie = DescriptorTrie()
    for k, tokens in enumerate(items):
        trie.insert(tokens, f"i{k}")
    model = SurrogateModel(order=order, alpha=alpha,
                           vocab_size=1 + max(max(t) for t in items))
    model.observe_streams(_token_stream(items, s, order) for s in streams)
    history = tuple(_token_stream(items, picks, order)[:-1] + [2])
    allowed = critique & trie.level1_tokens() or None
    for width in range(1, trie.n_terminals + 2):
        # On cold tables the pruned search expands the reference's live
        # hypotheses, so it asks the scorer exactly as often.
        model._expansions.clear()
        model._rankings.clear()
        ranked, calls = _logprob_calls(model, beam_decode, history, trie, width)
        expected, reference_calls = _logprob_calls(
            model, reference_beam_decode, history, trie, width)
        assert ranked == expected
        assert calls == reference_calls
        if allowed is not None:
            assert beam_decode(model, history, trie, width, allowed) == \
                reference_beam_decode(model, history, trie, width, allowed)
    _assert_best_first(model)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ties_are_broken_by_tokens_as_the_reference_does(depth):
    """Siblings with equal counts: every live hypothesis of a level ties on
    score, and every item ties with every other. The search breaks the ties
    by generated tokens and item id, as the reference does, at every width,
    plain and critiqued, and never compares two trie nodes."""
    paths = [()]
    for _ in range(depth):
        paths = [p + (t,) for p in paths for t in (3, 4, 5)]
    items = [p + (6,) for p in paths]
    trie = DescriptorTrie()
    for k, tokens in enumerate(items):
        trie.insert(tokens, f"i{k:02d}")
    for order in (1, 2, 3):
        model = SurrogateModel(order=order, alpha=0.1, vocab_size=7)
        model.observe_streams(_token_stream(items, [k], order)
                              for k in range(len(items)))
        history = tuple(_token_stream(items, [0], order)[:-1] + [2])
        for width in range(1, trie.n_terminals + 2):
            for allowed in (None, {4}, {3, 5}):
                assert beam_decode(model, history, trie, width, allowed) == \
                    reference_beam_decode(model, history, trie, width,
                                          allowed)
        full = beam_decode(model, history, trie, trie.n_terminals)
        assert len({score for _, score in full}) == 1


def test_threads_decoding_on_one_model_get_the_reference(decode_setup):
    """Threads that miss on one key at once both search and store equal
    rankings; every thread sees the reference's."""
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    requests = _decode_requests(table, split, trie, 3, n_users=4)
    expected = [reference_beam_decode(model, history, trie, width, allowed)
                for history, width, allowed in requests]
    results = []

    def decode_all():
        results.append([beam_decode(model, history, trie, width, allowed)
                        for history, width, allowed in requests])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)


def test_a_returned_ranking_is_the_callers_own(decode_setup):
    _, _, _, table, split, model, trie = decode_setup
    history = encode_history(table, split.train[sorted(split.test)[0]],
                             model.order)
    ranked = beam_decode(model, history, trie, 20)
    expected = list(ranked)
    ranked.reverse()
    ranked.append(("intruder", 0.0))
    assert beam_decode(model, history, trie, 20) == expected
    assert expected == reference_beam_decode(model, history, trie, 20)


def test_each_width_and_allowed_set_has_its_own_ranking(decode_setup):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    history = encode_history(table, split.train[sorted(split.test)[0]], 3)
    a, b = sorted(trie.level1_tokens())[:2]
    requests = [(history, width, allowed) for allowed in (None, {a}, {a, b})
                for width in (5, 20)]
    for _ in range(2):
        for requested in (requests, requests[::-1]):
            _assert_matches_reference(model, trie, requested)
    assert len(model._rankings) == len(requests)


def test_models_and_tries_share_nodes_safely(decode_setup):
    _, _, _, table, split, _, trie = decode_setup
    half = build_trie(SemidTable(rows=table.rows[::2], token_map=table.token_map))
    models = [fit_surrogate(split, table, order=3, alpha=alpha)
              for alpha in (0.1, 0.5)]
    requests = _decode_requests(table, split, trie, 3, n_users=3)
    for _ in range(2):
        for model in models:
            for each in (trie, half):
                _assert_matches_reference(model, each, requests)
    # Two tries on one model never serve each other's rankings.
    in_half = {table.rows[i].item_id for i in range(0, len(table.rows), 2)}
    for model in models:
        for history, width, allowed in requests:
            assert {i for i, _ in beam_decode(model, history, half, width,
                                              allowed)} <= in_half
        assert any(beam_decode(model, history, half, width, allowed)
                   != beam_decode(model, history, trie, width, allowed)
                   for history, width, allowed in requests)


def test_observing_a_stream_drops_the_expansion_table(decode_setup):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    requests = _decode_requests(table, split, trie, 3, n_users=3)
    before = [beam_decode(model, history, trie, width, allowed)
              for history, width, allowed in requests]
    favourite = table.rows[-1].item_id
    for _ in range(20):
        model.observe_streams([user_stream(table, [favourite] * 3, 3)])
    after = [beam_decode(model, history, trie, width, allowed)
             for history, width, allowed in requests]
    assert after != before
    _assert_matches_reference(model, trie, requests)


def test_beam_rejects_bad_arguments(decode_setup):
    _, _, _, table, split, model, trie = decode_setup
    history = encode_history(table, split.train[sorted(split.test)[0]],
                             model.order)
    # A warm ranking table answers no bad request.
    for level1 in trie.level1_tokens():
        beam_decode(model, history, trie, beam_width=5, allowed_level1={level1})
    beam_decode(model, history, trie, beam_width=5)
    with pytest.raises(DecodingError):
        beam_decode(model, history, trie, beam_width=0)
    with pytest.raises(DecodingError):
        beam_decode(model, history, trie, beam_width=5, allowed_level1=set())
    with pytest.raises(DecodingError):
        beam_decode(model, history, trie, beam_width=5,
                    allowed_level1={999999})


def test_special_tokens_built_once():
    table = tiny_table()
    assert table.special_tokens is table.special_tokens
    assert table.special_tokens == {"special:<bos>": 0, "special:<eos>": 1,
                                    "special:<sep>": 2}
    assert table.token_of["resolver:0"] == 7


def test_user_stream_layout():
    table = tiny_table()
    stream = user_stream(table, ["i1", "i2"], order=3)
    assert stream == [0, 0, 3, 5, 7, 2, 4, 6, 7, 1]
    context = encode_history(table, ["i1"], order=3)
    assert context == (0, 0, 3, 5, 7, 2)


def test_simulate_user_oracle_singleton(decode_setup):
    world, tree, records, table, split, model, trie = decode_setup
    item_id = table.rows[0].item_id
    allowed = simulate_user(item_id, world.corpus, table, tree, mode="oracle")
    assert len(allowed) == 1
    token = next(iter(allowed))
    assert table.token_map[token] == records[0].path[0]


def test_simulate_user_llm_matches_oracle(decode_setup):
    world, tree, _, table, split, model, trie = decode_setup
    gateway = make_gateway(world)
    for row in table.rows[:20]:
        oracle = simulate_user(row.item_id, world.corpus, table, tree,
                               mode="oracle")
        llm = simulate_user(row.item_id, world.corpus, table, tree,
                            mode="llm", gateway=gateway)
        assert llm == oracle


def test_simulate_user_names_closed_vocabulary(decode_setup):
    world, tree, _, table, _, _, _ = decode_setup
    gateway = make_gateway(world)
    level1_tokens = {t for t, name in table.token_map.items()
                     if name in {n.rule_id for n in tree.children_of(tree.root_id)}}
    for row in table.rows[:10]:
        allowed = simulate_user(row.item_id, world.corpus, table, tree,
                                mode="llm", gateway=gateway)
        assert allowed <= level1_tokens


def test_simulate_user_llm_parse_failure_falls_back(decode_setup):
    world, tree, _, table, _, _, _ = decode_setup

    class Junk:
        def generate(self, prompt):
            return "nope"

    from tagforge.gateway import AgentRole, Gateway

    gateway = Gateway({AgentRole.ARCHITECT: Junk(), AgentRole.ANNOTATOR: Junk()})
    item_id = table.rows[0].item_id
    oracle = simulate_user(item_id, world.corpus, table, tree, mode="oracle")
    assert simulate_user(item_id, world.corpus, table, tree, mode="llm",
                         gateway=gateway) == oracle


def test_simulate_user_llm_refusal_falls_back(decode_setup):
    world, tree, _, table, _, _, _ = decode_setup
    backend = FaultBackend(MockLLMBackend(world.taxonomy), "simulating a user",
                           BackendRefusalError)
    gateway = Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend})
    item_id = table.rows[0].item_id
    oracle = simulate_user(item_id, world.corpus, table, tree, mode="oracle")
    assert simulate_user(item_id, world.corpus, table, tree, mode="llm",
                         gateway=gateway) == oracle
    assert gateway.ledger.calls() == 0


def test_simulate_user_offers_only_sections_that_hold_an_item(decode_setup):
    """A level-1 descriptor no item's semantic ID starts with is neither
    offered nor accepted: the decoder allows no such token."""
    world, tree, records, _, split, _, _ = decode_setup
    tree = VocabularyTree.from_json(
        tree.to_json(), {rid: node.items for rid, node in tree.nodes.items()})
    empty = DescriptorNode(rule_id=tree.fresh_rule_id(tree.root_id, "Empty"),
                           name="Empty", description="Empty: INCLUDES: nothing.",
                           parent=tree.root_id, depth=1)
    tree.add_child(tree.root_id, empty)
    table = export_semids(records, tree)
    trie = build_trie(table)
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    names = [node.name for node in tree.children_of(tree.root_id)]
    prompts = []

    class SelectsEverySection:
        def generate(self, prompt):
            prompts.append(prompt)
            return json.dumps({"selected": names})

    backend = SelectsEverySection()
    gateway = Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend})
    user_id = sorted(split.test)[0]
    allowed = simulate_user(split.test[user_id], world.corpus, table, tree,
                            mode="llm", gateway=gateway)
    assert table.token_of[empty.rule_id] not in allowed
    assert allowed == trie.level1_tokens()
    assert "Empty" not in prompts[0]
    history = encode_history(table, split.train[user_id], model.order)
    assert beam_decode(model, history, trie, beam_width=5, allowed_level1=allowed)
