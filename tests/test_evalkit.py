from __future__ import annotations

import hashlib
import math
import random
import statistics

import pytest

from tagforge import evalkit
from tagforge.corpus import SplitDataset, last_out_split
from tagforge.decoding import build_trie, encode_history, fit_surrogate
from tagforge.evalkit import (EvalError, coverage_deltas, evaluate_run,
                              ndcg_at_k, recall_at_k, sample_negatives,
                              write_coverage_csv)
from tagforge.planted import make_interactions
from tagforge.vocab import CycleRecord, RefinementLog

from oracles import enumerate_rank, reference_sample_negatives


def test_target_at_rank_one():
    ranked = ["t", "b", "c", "d", "e"]
    assert recall_at_k(ranked, "t", 5) == 1.0
    assert ndcg_at_k(ranked, "t", 5) == 1.0


def test_target_at_rank_three_closed_form():
    ranked = ["a", "b", "t", "d", "e"]
    assert ndcg_at_k(ranked, "t", 5) == pytest.approx(0.5)  # 1/log2(4)
    assert recall_at_k(ranked, "t", 5) == 1.0
    assert recall_at_k(ranked, "t", 2) == 0.0


def test_metrics_against_independent_scorer():
    # Second, deliberately naive implementation as the oracle.
    def oracle(ranked, target, k):
        rec = 0.0
        ndcg = 0.0
        position = 0
        for idx, item in enumerate(ranked):
            if item == target:
                position = idx + 1
                break
        if position and position <= k:
            rec = 1.0
            ndcg = 1.0 / math.log2(position + 1)
        return rec, ndcg

    rng = random.Random(123)
    items = [f"i{j}" for j in range(30)]
    for _ in range(1000):
        ranked = rng.sample(items, k=rng.randint(1, 30))
        target = rng.choice(items)
        k = rng.randint(1, 12)
        rec, ndcg = oracle(ranked, target, k)
        assert recall_at_k(ranked, target, k) == rec
        assert ndcg_at_k(ranked, target, k) == pytest.approx(ndcg)


def test_metrics_monotone_in_k():
    rng = random.Random(7)
    items = [f"i{j}" for j in range(40)]
    for _ in range(50):
        ranked = rng.sample(items, k=20)
        target = rng.choice(items)
        rec = [recall_at_k(ranked, target, k) for k in range(1, 21)]
        ndcg = [ndcg_at_k(ranked, target, k) for k in range(1, 21)]
        assert rec == sorted(rec)
        assert ndcg == sorted(ndcg)


def test_empty_ranking_is_error():
    with pytest.raises(EvalError):
        recall_at_k([], "t", 5)


class TargetOracleModel:
    """Scores exactly one token sequence at the top."""

    order = 3

    def __init__(self, target_tokens):
        self.target = tuple(target_tokens)

    def score_sequence(self, context, tokens):
        return 1.0 if tuple(tokens) == self.target else -1.0


class HashScorer:
    """Deterministic pseudo-random scores, independent of the target."""

    order = 3

    def score_sequence(self, context, tokens):
        key = repr((tuple(context)[-2:], tuple(tokens))).encode()
        return int.from_bytes(hashlib.sha1(key).digest()[:8], "big") / 2 ** 64


def test_oracle_model_scores_perfectly(small_semids):
    _, _, _, table = small_semids
    ids = [row.item_id for row in table.rows]
    target = ids[5]
    split = SplitDataset(
        train={f"u{k}": [ids[k]] for k in range(10)},
        valid={},
        test={f"u{k}": target for k in range(10)})
    model = TargetOracleModel(table.row_of(target).tokens)
    report = evaluate_run(model, None, split, table, mode="sampled",
                          ks=(5, 10), seed=0, n_negatives=100)
    assert report.n_users == 10
    assert all(v == 1.0 for v in report.recall.values())
    assert all(v == 1.0 for v in report.ndcg.values())


def test_uniform_random_scorer_matches_expectation(small_semids):
    _, _, _, table = small_semids
    ids = [row.item_id for row in table.rows]
    rng = random.Random(17)
    split = SplitDataset(
        train={f"u{k:04d}": [rng.choice(ids)] for k in range(2000)},
        valid={},
        test={f"u{k:04d}": rng.choice(ids) for k in range(2000)})
    # Drop users whose sampled target equals their train item.
    for user in list(split.test):
        if split.test[user] in split.train[user]:
            del split.test[user], split.train[user]
    report = evaluate_run(HashScorer(), None, split, table, mode="sampled",
                          ks=(10,), seed=3, n_negatives=100)
    p = 10 / 101
    sigma = math.sqrt(p * (1 - p) / report.n_users)
    assert abs(report.recall[10] - p) <= 3 * sigma


def test_sampled_mode_deterministic_under_seed(small_semids):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=30, seed=2))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    a = evaluate_run(model, None, split, table, mode="sampled", seed=11,
                     n_negatives=50)
    b = evaluate_run(model, None, split, table, mode="sampled", seed=11,
                     n_negatives=50)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("order", [1, 3])
def test_sampled_mode_scores_along_the_trie_as_without_it(small_semids, order,
                                                         monkeypatch):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=30, seed=2))
    model = fit_surrogate(split, table, order=order, alpha=0.1)
    kwargs = dict(mode="sampled", ks=(1, 5, 10), seed=11, n_negatives=50)
    plain = evaluate_run(model, None, split, table, **kwargs)
    # With a trie no candidate is scored through ``score_sequence``.
    monkeypatch.delattr(type(model), "score_sequence")
    along = evaluate_run(model, build_trie(table), split, table, **kwargs)
    assert along.to_json() == plain.to_json()
    assert plain.n_users > 0


@pytest.mark.parametrize("size", [1, 3, 30, 150, 1200, 3000])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_sampled_negatives_equal_the_pool_copy(size, n):
    """Pools on both sides of ``random.sample``'s set-size threshold, with
    the first, the last and both end ids excluded, and pools smaller than
    ``n``, down to an empty one."""
    all_ids = [f"i{k:05d}" for k in range(size)]
    position = {item_id: k for k, item_id in enumerate(all_ids)}
    picker = random.Random(size * 1000 + n)
    ends = [set(), {all_ids[0]}, {all_ids[-1]}, {all_ids[0], all_ids[-1]},
            set(all_ids), set(all_ids[1:])]
    for trial in range(40):
        exclude = set(picker.sample(all_ids, picker.randint(0, min(size, 40))))
        exclude |= ends[trial % len(ends)]
        skipped = sorted(position[i] for i in exclude)
        ours = sample_negatives(random.Random(trial), all_ids, skipped, n)
        assert ours == reference_sample_negatives(random.Random(trial), all_ids,
                                                  exclude, n)
        assert len(ours) == min(n, size - len(exclude))


def test_sampled_mode_equals_the_pool_copy(small_semids, monkeypatch):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=40, seed=2))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    for n_negatives in (50, len(table.rows)):
        args = (model, None, split, table)
        kwargs = dict(mode="sampled", seed=11, n_negatives=n_negatives)
        ours = evaluate_run(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(evalkit, "sample_negatives",
                          lambda rng, all_ids, skipped, n: reference_sample_negatives(
                              rng, all_ids, {all_ids[p] for p in skipped}, n))
            assert evaluate_run(*args, **kwargs).to_json() == ours.to_json()


def test_full_rank_equals_enumeration_metrics(small_semids):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=25, seed=4))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    trie = build_trie(table)
    report = evaluate_run(model, trie, split, table, mode="full", ks=(5, 10),
                          beam_width=trie.n_terminals + 5)
    known = {row.item_id for row in table.rows}
    total = {5: [0.0, 0.0], 10: [0.0, 0.0]}
    n = 0
    for user_id in sorted(split.test):
        history = [i for i in split.train[user_id] if i in known]
        target = split.test[user_id]
        if target not in known or not history:
            continue
        ranked = [i for i, _ in enumerate_rank(
            model, encode_history(table, history, model.order), table)]
        for k in (5, 10):
            total[k][0] += recall_at_k(ranked, target, k)
            total[k][1] += ndcg_at_k(ranked, target, k)
        n += 1
    for k in (5, 10):
        assert report.recall[k] == pytest.approx(total[k][0] / n)
        assert report.ndcg[k] == pytest.approx(total[k][1] / n)


@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_users_without_a_known_target_or_history_are_skipped(small_semids, mode):
    world, _, _, table = small_semids
    split = last_out_split(make_interactions(world, n_users=20, seed=4))
    model = fit_surrogate(split, table, order=3, alpha=0.1)
    trie = build_trie(table)
    user = sorted(split.test)[0]
    # One user's target has no semantic ID; the other's history holds no
    # item that has one.
    padded = SplitDataset(
        train={**split.train, "no-semid-target": split.train[user],
               "unknown-history": ["no-such-item"]},
        valid=split.valid,
        test={**split.test, "no-semid-target": "no-such-item",
              "unknown-history": split.test[user]})
    kwargs = dict(mode=mode, ks=(5, 10), seed=3, n_negatives=50)
    base = evaluate_run(model, trie, split, table, **kwargs)
    report = evaluate_run(model, trie, padded, table, **kwargs)
    assert report.n_skipped == base.n_skipped + 2
    assert report.n_users == base.n_users > 0
    assert (report.recall, report.ndcg) == (base.recall, base.ndcg)


def _log(depth, coverages):
    log = RefinementLog(rule_id="rule_0000test", depth=depth, n_items=100)
    for c, cov in enumerate(coverages, start=1):
        log.cycles.append(CycleRecord(cycle=c, coverage=cov,
                                      n_unassigned=int((1 - cov) * 100)))
    return log


def test_coverage_delta_single_cycle_pair():
    rows = coverage_deltas([_log(0, [0.60, 0.80])])
    assert rows == [(1, 2, pytest.approx(0.20))]


def test_coverage_deltas_median_matches_independent_routine(tmp_path):
    logs = [_log(0, [0.5, 0.7, 0.8]), _log(1, [0.6, 0.9]), _log(1, [0.2, 0.35])]
    rows = coverage_deltas(logs)
    deltas = sorted(r[2] for r in rows)
    mid = len(deltas) // 2
    manual = (deltas[mid] if len(deltas) % 2
              else (deltas[mid - 1] + deltas[mid]) / 2)
    assert statistics.median(r[2] for r in rows) == pytest.approx(manual)
    out = tmp_path / "cov.csv"
    write_coverage_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,cycle,delta"
    assert len(lines) == len(rows) + 1
