"""Checks of the checks: each output check passes on real pipeline output of a
tiny planted world and fails once that output is corrupted; the span-tree check
passes a well-formed tree and fails a misattributed one."""

from __future__ import annotations

import copy
import io
import json
import shutil
from contextlib import redirect_stdout

import pytest

import checks
import tracing
import worker
import worlds
from checks import read_json, read_jsonl
from tagforge import cli

SEED = 5


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A finished quickstart run on the tiny demo world."""
    root = tmp_path_factory.mktemp("demo")
    data = root / "data"
    worlds.make_demo(data, worlds.TINY_DEMO, SEED)
    config = root / "config.json"
    config.write_text(json.dumps(worlds.run_config(data, root / "run", SEED, 2)))
    for stage in ("ingest", "build-vocab", "assign", "encode", "fit", "evaluate",
                  "critique-eval"):
        with redirect_stdout(io.StringIO()):
            assert cli.dispatch([stage, "--config", str(config)]) == 0, stage
    return {"run": root / "run", "world": read_json(data / "world.json")}


def test_vocabulary_check(demo):
    vocab, world = read_json(demo["run"] / "vocab.json"), demo["world"]
    assert checks.vocabulary_matches_taxonomy(vocab, world) == []
    renamed = copy.deepcopy(vocab)
    rule = next(r for r, n in renamed["nodes"].items() if n["depth"] == 2)
    renamed["nodes"][rule]["name"] += "x"
    assert checks.vocabulary_matches_taxonomy(renamed, world)
    moved = copy.deepcopy(vocab)
    level1 = [r for r, n in moved["nodes"].items() if n["depth"] == 1]
    leaf = next(r for r, n in moved["nodes"].items()
                if n["depth"] == 2 and n["parent"] == level1[0])
    moved["nodes"][leaf]["parent"] = level1[1]
    assert checks.vocabulary_matches_taxonomy(moved, world)


def test_path_check_catches_a_swapped_assignment(demo):
    vocab, true_path = read_json(demo["run"] / "vocab.json"), demo["world"]["true_path"]
    rows = read_jsonl(demo["run"] / "assignments.jsonl")
    assert checks.paths_match_world(rows, vocab, true_path) == []
    other = next(i for i, r in enumerate(rows) if r["path"] != rows[0]["path"])
    rows[0]["path"], rows[other]["path"] = rows[other]["path"], rows[0]["path"]
    assert checks.paths_match_world(rows, vocab, true_path)
    assert checks.paths_match_world(rows[1:], vocab, true_path)


def test_semid_check_catches_collisions_and_bad_tokens(demo):
    rows = read_jsonl(demo["run"] / "assignments.jsonl")
    semids = read_jsonl(demo["run"] / "semids.jsonl")
    token_map = read_json(demo["run"] / "token_map.json")
    assert checks.semids_consistent(rows, semids, token_map) == []
    twin = copy.deepcopy(rows)
    same = [r for r in twin if r["path"] == twin[0]["path"]]
    same[1]["resolver"] = same[0]["resolver"]
    assert checks.semids_consistent(twin, semids, token_map)
    bad = copy.deepcopy(semids)
    bad[0]["tokens"][0], bad[0]["tokens"][1] = bad[0]["tokens"][1], bad[0]["tokens"][0]
    assert checks.semids_consistent(rows, bad, token_map)
    assert checks.semids_consistent(rows, semids[1:], token_map)


def test_eval_and_critique_checks(demo):
    report = read_json(demo["run"] / "reports" / "eval_full.json")
    users = worlds.TINY_DEMO.users
    assert checks.eval_report_ok(report, users, "evaluate") == []
    assert checks.eval_report_ok(dict(report, n_users=users - 1), users, "evaluate")
    falling = copy.deepcopy(report)
    falling["recall"]["50"] = falling["recall"]["5"] - 0.01
    assert checks.eval_report_ok(falling, users, "evaluate")
    critique = read_json(demo["run"] / "reports" / "critique_eval.json")
    plain, constrained = critique["vanilla"]["ndcg"]["10"], critique["constrained"]["ndcg"]["10"]
    assert checks.critique_not_worse(plain, constrained) == []
    assert checks.critique_not_worse(constrained + 0.01, constrained)


def test_skipped_output_check_catches_a_mutation(demo, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(demo["run"], run)
    names = checks.STAGE_OUTPUTS["assign"]
    cold = checks.file_digests(run, names)
    assert checks.outputs_identical("assign", cold, checks.file_digests(run, names)) == []
    with (run / "assignments.jsonl").open("a") as fh:
        fh.write("\n")
    assert checks.outputs_identical("assign", cold, checks.file_digests(run, names))


def test_ranking_checks_catch_reordered_and_mutated_results(demo):
    served = worker.serve(str(demo["run"]), worlds.BEAM_WIDTH)
    known = set(demo["world"]["true_path"])
    result = served["requests"][0]["plain"]
    items, scores, rescored = result["items"], result["scores"], result["rescored"]
    assert checks.ranking_problems(items, scores, rescored, known, "u") == []
    assert checks.ranking_problems(items[::-1], scores[::-1], rescored[::-1], known, "u")
    shifted = [scores[0] + 0.5] + scores[1:]
    assert checks.ranking_problems(items, shifted, rescored, known, "u")
    assert checks.ranking_problems(["nope"] + items[1:], scores, rescored, known, "u")
    assert checks.ranking_problems(items[:1] * len(items), scores, rescored, known, "u")
    assert checks.ranking_problems([], [], [], known, "u")


def test_constrained_check():
    level1_of = {"a": 3, "b": 3, "c": 4}
    assert checks.constrained_problems(["a", "b"], [3], 3, level1_of, "u") == []
    assert checks.constrained_problems(["a", "c"], [3], 3, level1_of, "u")
    assert checks.constrained_problems(["a", "b"], [3, 4], 3, level1_of, "u")
    assert checks.constrained_problems(["c"], [4], 3, level1_of, "u")


def test_ndcg():
    assert checks.ndcg_at(["x", "t"], "t") == pytest.approx(1 / 1.584962500721156)
    assert checks.ndcg_at(["x"] * 10 + ["t"], "t") == 0.0


def test_transcript_check():
    rows = [{"latency_ms": 0.05}, {"latency_ms": 1.2}]
    assert checks.transcript_matches_ledger(rows, 2) == []
    assert checks.transcript_matches_ledger(rows[1:], 2)
    assert checks.transcript_matches_ledger([{"latency_ms": -1.0}, {}], 2)


def _span(span_id, parent, name, start, end, thread=1):
    return tracing.Span(span_id, parent, name, start, end, thread, "t")


def test_attribution_check_passes_a_well_formed_tree():
    spans = [_span(1, None, "stage:a", 0.0, 10.0),
             _span(2, 1, "assignment.assign_paths", 1.0, 9.0),
             _span(3, 2, "gateway.complete", 2.0, 6.0, thread=2),  # two pool threads
             _span(4, 2, "gateway.complete", 3.0, 7.0, thread=3),
             _span(5, None, "op:serve", 10.0, 12.0)]
    assert tracing.SpanTree(spans).attribution_error() == pytest.approx(0.0, abs=1e-12)


def test_attribution_check_catches_a_span_outside_its_parent():
    spans = [_span(1, None, "stage:a", 0.0, 10.0),
             _span(2, 1, "gateway.complete", 8.0, 12.0)]
    assert tracing.SpanTree(spans).attribution_error() == pytest.approx(0.2)


def test_attribution_check_catches_an_orphaned_span():
    spans = [_span(1, None, "stage:a", 0.0, 10.0),
             _span(2, 1, "assignment.assign_paths", 1.0, 9.0),
             _span(3, None, "gateway.complete", 2.0, 5.0, thread=2)]
    assert tracing.SpanTree(spans).attribution_error() == pytest.approx(0.3)
