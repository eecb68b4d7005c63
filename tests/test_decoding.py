from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge.assignment import AssignmentRecord, SemidRow, SemidTable, export_semids, resolve_collisions
from tagforge.corpus import SplitDataset
from tagforge.decoding import (DecodingError, SurrogateModel, beam_decode,
                               build_trie, encode_history,
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
def test_logprob_rows_equal_log_of_prob(order, alpha, first, later, queries):
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


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_beam_equals_reference_decoder(decode_setup, order, alpha, monkeypatch):
    _, _, _, table, split, _, trie = decode_setup
    model = fit_surrogate(split, table, order=order, alpha=alpha)
    requests = _decode_requests(table, split, trie, order)
    _assert_matches_reference(model, trie, requests)
    # On a warm table the decoder asks the scorer nothing.
    calls = []
    logprob = SurrogateModel.logprob
    monkeypatch.setattr(SurrogateModel, "logprob",
                        lambda self, *args: calls.append(args) or logprob(self, *args))
    for history, width, allowed in requests:
        beam_decode(model, history, trie, width, allowed)
    assert calls == []
    monkeypatch.undo()
    _assert_matches_reference(model, trie, requests)


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
