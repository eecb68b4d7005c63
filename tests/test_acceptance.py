"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The planted 4x4x4 world (2,000 items) drives the end-to-end criteria; the
hidden ground truth doubles as the oracle for recovery, purity, and the
critique direction check.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tagforge import prompts
from tagforge.assignment import (AssignmentRecord, assign_paths, export_semids,
                                 resolve_collisions, vocab_stats)
from tagforge.builder import BuildInterrupted, build_vocabulary, load_checkpoint
from tagforge.clustering import HashingProvider, k_means, k_medoids
from tagforge.corpus import SplitDataset, last_out_split
from tagforge.decoding import (beam_decode, build_trie, encode_history,
                               fit_surrogate, simulate_user)
from tagforge.evalkit import coverage_deltas, evaluate_run, ndcg_at_k, recall_at_k, write_coverage_csv
from tagforge.freeform import generate_freeform, tag_utilization
from tagforge.gateway import AgentRole
from tagforge.planted import make_interactions, make_world
from tagforge.vocab import BuildConfig, DescriptorNode, VocabularyTree

from conftest import make_gateway
from oracles import brute_force_medoids, decode_semids, enumerate_rank


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def big_world():
    return make_world(branching=(4, 4, 4), n_items=2000, seed=7)


@pytest.fixture(scope="module")
def big_build(big_world):
    """Unconstrained-branching build plus final assignment, timed for C1."""
    gateway = make_gateway(big_world)
    config = BuildConfig(d_max=3, tau_split=30, parallelism=8)
    started = time.monotonic()
    state = build_vocabulary(big_world.corpus, config, gateway,
                             HashingProvider(dim=256))
    records = assign_paths(big_world.corpus, state.tree, gateway, parallelism=8)
    records = resolve_collisions(records)
    elapsed = time.monotonic() - started
    table = export_semids(records, state.tree)
    return {"state": state, "records": records, "table": table,
            "elapsed": elapsed, "gateway": gateway}


def test_criterion_01_planted_taxonomy_recovery(big_world, big_build):
    with criterion(1, "planted 4x4x4 recovery: coverage >= 0.95, "
                      "purity >= 0.90, wall-clock < 60 s"):
        state, records = big_build["state"], big_build["records"]
        tree = state.tree
        assert tree.max_depth() == 3

        full = [r for r in records if len(r.path) == 3]
        coverage = len(full) / len(records)
        assert coverage >= 0.95, f"coverage {coverage:.3f}"

        # Leaf purity by item majority.
        leaf_members: dict[str, list[str]] = {}
        for rec in full:
            leaf_members.setdefault(rec.path[-1], []).append(rec.item_id)
        majority_hits = 0
        for leaf_id, members in leaf_members.items():
            counts: dict[str, int] = {}
            for item_id in members:
                true_leaf = big_world.true_path[item_id][-1]
                counts[true_leaf] = counts.get(true_leaf, 0) + 1
            majority_hits += max(counts.values())
        purity = majority_hits / len(full)
        assert purity >= 0.90, f"purity {purity:.3f}"
        assert big_build["elapsed"] < 60.0, f"took {big_build['elapsed']:.1f}s"


def test_criterion_02_refinement_efficacy(big_world, tmp_path):
    with criterion(2, "withheld category recovered: coverage strictly "
                      "increases and reaches >= 0.95 within 3 cycles; "
                      "all coverage deltas >= 0"):
        hidden = big_world.taxonomy.level1[0]
        gateway = make_gateway(big_world, hidden=[hidden])
        config = BuildConfig(d_max=3, tau_split=30, parallelism=8, c_max=3)
        state = build_vocabulary(big_world.corpus, config, gateway,
                                 HashingProvider(dim=256))
        root_log = next(log for log in state.logs
                        if log.rule_id == state.tree.root_id)
        coverages = [c.coverage for c in root_log.cycles]
        assert len(coverages) >= 2
        assert coverages[1] > coverages[0]
        assert len(coverages) <= 3
        assert coverages[-1] >= 0.95
        level1_names = {n.name for n in state.tree.level_nodes(1)}
        assert hidden in level1_names

        rows = coverage_deltas(state.logs)
        assert rows, "no refinement deltas recorded"
        assert all(delta >= 0 for _, _, delta in rows)
        csv_path = tmp_path / "coverage_deltas.csv"
        write_coverage_csv(rows, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "level,cycle,delta"
        assert len(lines) == len(rows) + 1


def test_criterion_03_call_budget_bound(big_world):
    with criterion(3, "branching-factor-1 build stays within the "
                      "C_max*N*D_max annotator-call bound"):
        gateway = make_gateway(big_world)
        config = BuildConfig(d_max=3, tau_split=30, branching_factor=1,
                             parallelism=8, c_max=3)
        state = build_vocabulary(big_world.corpus, config, gateway,
                                 HashingProvider(dim=256))
        n = len(big_world.corpus)
        assign_calls = gateway.ledger.calls(AgentRole.ANNOTATOR,
                                            prompts.ASSIGN_ITEM)
        architect_calls = gateway.ledger.calls(AgentRole.ARCHITECT)
        annotator_calls = gateway.ledger.calls(AgentRole.ANNOTATOR)
        refined = len(state.report.nodes_refined)
        assert assign_calls <= config.c_max * n * config.d_max
        assert architect_calls <= refined * (1 + config.c_max)
        assert annotator_calls <= config.c_max * n * config.d_max + architect_calls


def test_criterion_04_collision_bijection():
    with criterion(4, "(path, resolver) -> item is a bijection and "
                      "encode/decode round-trips exactly"):
        tree = VocabularyTree(root_items={f"item{k:05d}" for k in range(1200)})
        paths = []
        all_items = set(tree.root.items)
        for a in range(3):
            top = f"top{a}"
            top_id = tree.fresh_rule_id(tree.root_id, top)
            tree.add_child(tree.root_id, DescriptorNode(
                rule_id=top_id, name=top,
                description=f"{top}: INCLUDES: x. EXCLUDES: y.",
                parent=tree.root_id, depth=1, items=all_items))
            for b in range(2):
                leaf = f"leaf{a}{b}"
                leaf_id = tree.fresh_rule_id(top_id, leaf)
                tree.add_child(top_id, DescriptorNode(
                    rule_id=leaf_id, name=leaf,
                    description=f"{leaf}: INCLUDES: x. EXCLUDES: y.",
                    parent=top_id, depth=2, items=all_items))
                paths.append((top_id, leaf_id))
        rng = random.Random(99)
        records = [AssignmentRecord(item_id=f"item{k:05d}",
                                    path=paths[rng.randrange(len(paths))])
                   for k in range(1200)]
        resolved = resolve_collisions(records)
        keys = {(r.path, r.resolver) for r in resolved}
        assert len(keys) == len(records) == 1200

        table = export_semids(resolved, tree)
        decoded = decode_semids(table)
        assert {(r.item_id, r.path, r.resolver) for r in decoded} == \
            {(r.item_id, r.path, r.resolver) for r in resolved}


def test_criterion_05_decoder_oracle_equivalence():
    with criterion(5, "beam decode with B >= corpus size equals exhaustive "
                      "enumeration (order exact, scores within 1e-12)"):
        world = make_world(branching=(3, 3), n_items=180, seed=13)
        gateway = make_gateway(world)
        config = BuildConfig(d_max=2, tau_split=20, parallelism=8)
        state = build_vocabulary(world.corpus, config, gateway,
                                 HashingProvider(dim=256))
        records = resolve_collisions(
            assign_paths(world.corpus, state.tree, gateway))
        table = export_semids(records, state.tree)
        trie = build_trie(table)
        split = last_out_split(make_interactions(world, n_users=50, seed=21))
        model = fit_surrogate(split, table, order=3, alpha=0.1)
        big = trie.n_terminals + 5
        checked = 0
        for user_id in sorted(split.test):
            history = [i for i in split.train[user_id]]
            context = encode_history(table, history, model.order)
            beam = beam_decode(model, context, trie, beam_width=big)
            oracle = enumerate_rank(model, context, table)
            assert [b[0] for b in beam] == [o[0] for o in oracle]
            assert all(abs(b[1] - o[1]) <= 1e-12
                       for b, o in zip(beam, oracle))
            checked += 1
        assert checked >= 40


def test_criterion_06_critique_direction(big_world, big_build):
    with criterion(6, "oracle-simulated critique: constrained N@10 >= "
                      "vanilla N@10 over >= 500 users; constraint is hard"):
        table = big_build["table"]
        tree = big_build["state"].tree
        split = last_out_split(make_interactions(big_world, n_users=520,
                                                 seed=31))
        model = fit_surrogate(split, table, order=3, alpha=0.1)
        trie = build_trie(table)
        known = {row.item_id for row in table.rows}
        allowed_by_user = {}
        for user_id in sorted(split.test):
            target = split.test[user_id]
            if target in known:
                allowed_by_user[user_id] = simulate_user(
                    target, big_world.corpus, table, tree, mode="oracle")
        assert len(allowed_by_user) >= 500

        vanilla = evaluate_run(model, trie, split, table, mode="full",
                               ks=(10,), beam_width=20)
        constrained = evaluate_run(model, trie, split, table, mode="full",
                                   ks=(10,), beam_width=20,
                                   allowed_level1_by_user=allowed_by_user)
        assert vanilla.n_users >= 500
        assert constrained.ndcg[10] >= vanilla.ndcg[10], (
            f"constrained {constrained.ndcg[10]:.4f} < "
            f"vanilla {vanilla.ndcg[10]:.4f}")

        # Hard constraint: every constrained output is inside the allowed set.
        for user_id in sorted(allowed_by_user):
            allowed = allowed_by_user[user_id]
            history = [i for i in split.train[user_id] if i in known]
            if not history:
                continue
            context = encode_history(table, history, model.order)
            ranked = beam_decode(model, context, trie, beam_width=20,
                                 allowed_level1=allowed)
            for item_id, _ in ranked:
                assert table.row_of(item_id).tokens[0] in allowed


def test_criterion_07_clustering_oracles():
    with criterion(7, "k-medoids matches brute force for n <= 8, k <= 3 over "
                      "100 seeds; k-means reaches blob optimum"):
        rng = np.random.default_rng(555)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            vectors = rng.normal(size=(n, 2))
            result = k_medoids(vectors, k)
            _, best_cost = brute_force_medoids(vectors, k)
            assert abs(result.total_cost - best_cost) <= 1e-9

        for seed in range(10):
            blob_rng = np.random.default_rng(seed)
            blob_a = blob_rng.normal(loc=0.0, scale=0.05, size=(4, 2))
            blob_b = blob_rng.normal(loc=9.0, scale=0.05, size=(4, 2))
            vectors = np.vstack([blob_a, blob_b])
            result = k_means(vectors, k=2, seed=seed)
            labels = result.assignment
            assert len({labels[0], labels[1], labels[2], labels[3]}) == 1
            assert len({labels[4], labels[5], labels[6], labels[7]}) == 1
            assert labels[0] != labels[4]


def test_criterion_08_metric_correctness(big_build):
    with criterion(8, "metrics match closed forms; uniform scorer hits the "
                      "10/101 sampled recall expectation within 3 sigma"):
        assert ndcg_at_k(["a", "b", "t", "d", "e"], "t", 5) == pytest.approx(0.5)
        assert recall_at_k(["t"], "t", 5) == 1.0
        assert ndcg_at_k(["t"], "t", 5) == 1.0

        class HashScorer:
            order = 3

            def score_sequence(self, context, tokens):
                key = repr((tuple(context)[-2:], tuple(tokens))).encode()
                return int.from_bytes(hashlib.sha1(key).digest()[:8],
                                      "big") / 2 ** 64

        table = big_build["table"]
        ids = [row.item_id for row in table.rows]
        rng = random.Random(41)
        train = {}
        test = {}
        for k in range(2000):
            user = f"u{k:04d}"
            t = rng.choice(ids)
            h = rng.choice(ids)
            while h == t:
                h = rng.choice(ids)
            train[user] = [h]
            test[user] = t
        split = SplitDataset(train=train, valid={}, test=test)
        report = evaluate_run(HashScorer(), None, split, table,
                              mode="sampled", ks=(10,), seed=5,
                              n_negatives=100)
        assert report.n_users == 2000
        p = 10 / 101
        sigma = math.sqrt(p * (1 - p) / 2000)
        assert abs(report.recall[10] - p) <= 3 * sigma, (
            f"recall@10 {report.recall[10]:.4f} vs expectation {p:.4f}")


def test_criterion_09_utilization_contrast(big_world, big_build):
    with criterion(9, "pipeline descriptor utilization 1.0 vs free-form "
                      "utilization < 0.5 on the same corpus"):
        stats = vocab_stats(big_build["records"], big_build["state"].tree)
        assert stats.utilization == 1.0
        gateway = make_gateway(big_world)
        tags = generate_freeform(big_world.corpus, gateway, n_tags_per_item=3)
        freeform_util = tag_utilization(tags)
        assert freeform_util < 0.5, f"free-form utilization {freeform_util:.3f}"


def test_criterion_10_resumability(tmp_path):
    with criterion(10, "interrupted build resumes with zero duplicate node "
                       "refinements and reproduces the uninterrupted tree"):
        world = make_world(branching=(3, 3), n_items=270, seed=5)
        config = BuildConfig(d_max=2, tau_split=20, parallelism=8)
        provider = HashingProvider(dim=256)

        reference_gateway = make_gateway(world)
        reference = build_vocabulary(world.corpus, config, reference_gateway,
                                     provider)
        reference_tree = json.dumps(reference.tree.to_json(), sort_keys=True)
        reference_calls = reference_gateway.ledger.calls()

        ckpt = tmp_path / "ckpt.json"
        limited = make_gateway(world, max_calls=300)
        with pytest.raises(BuildInterrupted):
            build_vocabulary(world.corpus, config, limited, provider,
                             checkpoint_path=ckpt)
        state1 = load_checkpoint(ckpt)
        assert 0 < len(state1.completed) < len(reference.completed)

        resumed_gateway = make_gateway(world)
        state2 = build_vocabulary(world.corpus, config, resumed_gateway,
                                  provider, checkpoint_path=ckpt,
                                  resume_state=state1)
        refined = state2.report.nodes_refined
        assert len(refined) == len(set(refined))
        assert set(refined) == set(reference.report.nodes_refined)
        # Ledger audit: the resumed run never re-annotates completed nodes.
        assert resumed_gateway.ledger.calls() < reference_calls
        assert json.dumps(state2.tree.to_json(), sort_keys=True) == \
            reference_tree
