from __future__ import annotations

import copy
import dataclasses
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from tagforge import cli, mockllm
from tagforge.cli import dispatch
from tagforge.gateway import AgentRole, BackendRefusalError, HttpBackend
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import (make_interactions, make_world, save_world)
from tagforge.corpus import (last_out_split, load_corpus, load_interactions,
                             read_splits, write_corpus, write_interactions,
                             write_splits)
from tagforge.assignment import SemidTable
from tagforge.decoding import SurrogateModel, build_trie, encode_history
from tagforge.runs import RunPaths, inputs_hash, read_json, read_jsonl

from conftest import FaultBackend, held_flock, load_perfbench
from oracles import reference_beam_decode


PIPELINE = ("ingest", "build-vocab", "assign", "encode", "fit", "recommend",
            "evaluate", "critique-eval", "baseline-freeform", "report")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 150-item world run through every stage of :data:`PIPELINE`."""
    root = tmp_path_factory.mktemp("cliws")
    world = make_world(branching=(3, 3), n_items=150, seed=5)
    data = root / "data"
    data.mkdir()
    write_corpus(world.corpus, data / "corpus.jsonl")
    write_interactions(make_interactions(world, n_users=40, seed=6),
                       data / "interactions.jsonl")
    save_world(world, data / "world.json")
    config = {
        "run_dir": str(root / "run"),
        "backend": "mock",
        "seed": 5,
        "corpus_path": str(data / "corpus.jsonl"),
        "interactions_path": str(data / "interactions.jsonl"),
        "mock_world_path": str(data / "world.json"),
        "build": {"d_max": 2, "tau_split": 20},
        "beam_width": 20,
        "eval_mode": "sampled",
        "n_negatives": 30,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    for command in PIPELINE:
        assert run(config_path, command) == 0, command
    return root, config_path, world


def run(config_path, *argv):
    return dispatch([*argv, "--config", str(config_path)])


def test_full_pipeline_exit_codes_and_artifacts(workspace):
    root, _, _ = workspace
    run_dir = root / "run"
    for name in ("corpus.jsonl", "splits.jsonl", "vocab.json",
                 "refinement_logs.jsonl", "build_report.json",
                 "assignments.jsonl", "semids.jsonl", "token_map.json",
                 "model.bin", "ledger.jsonl", "config.json", "manifest.json"):
        assert (run_dir / name).exists(), name
    for name in ("fixed_slots.csv", "vocab_items.jsonl"):
        assert not (run_dir / name).exists(), name
    for name in ("ingest.json", "vocab_stats.json", "eval_sampled.json",
                 "critique_eval.json", "freeform.json", "summary.json",
                 "coverage_deltas.csv", "recommendations.jsonl"):
        assert (run_dir / "reports" / name).exists(), name


def test_readme_lists_the_run_directory(workspace):
    root, _, _ = workspace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("### Run directory\n\n```\n", 1)[1].split("```", 1)[0]
    names = {line.split()[0].rstrip("/") for line in listing.splitlines()}
    assert {name for name in names if "/" not in name} == \
        {path.name for path in (root / "run").iterdir()}


def test_no_stage_reads_a_leftover_item_file(workspace, tmp_path):
    """Run directories of earlier versions keep ``vocab_items.jsonl``, and
    their ``build-vocab`` stays current: the stages after it must not read
    that file."""
    root, config_path, _ = workspace
    run_dir = tmp_path / "run"
    shutil.copytree(root / "run", run_dir)
    config = {**read_json(config_path), "run_dir": str(run_dir)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    (run_dir / "vocab_items.jsonl").write_text("not json\n")
    outputs = {"assign": ["assignments.jsonl"],
               "encode": ["semids.jsonl", "token_map.json", "reports/vocab_stats.json"],
               "critique-eval": ["reports/critique_eval.json"]}
    for stage, names in outputs.items():
        before = {name: (run_dir / name).read_bytes() for name in names}
        assert run(config_path, stage, "--force") == 0, stage
        assert {name: (run_dir / name).read_bytes() for name in names} == before


def test_critique_report_contains_both_arms(workspace):
    root, _, _ = workspace
    payload = json.loads((root / "run/reports/critique_eval.json").read_text())
    assert payload["simulator"] == "oracle"
    assert set(payload["vanilla"]["ndcg"]) == set(payload["constrained"]["ndcg"])
    for k, vanilla in payload["vanilla"]["ndcg"].items():
        assert payload["constrained"]["ndcg"][k] >= vanilla


def test_benchmark_serving_ranks_as_the_reference_decoder(workspace):
    """The benchmark's ``serve`` operation (``perfbench/worker.py``) calls
    ``beam_decode`` itself: over two passes on the finished run, every
    request it serves is the reference decoder's ranking."""
    root, _, _ = workspace
    paths = RunPaths(root / "run")
    served = load_perfbench("worker").serve(str(paths.root), beam_width=20,
                                            passes=2)["requests"]
    split = read_splits(paths.splits)
    table = SemidTable.load(paths.semids, paths.token_map)
    model = SurrogateModel.load(paths.model)
    trie = build_trie(table)
    known = {row.item_id for row in table.rows}
    assert [r["user_id"] for r in served] == sorted(split.test) * 2
    for request in served:
        history = [i for i in split.train[request["user_id"]] if i in known]
        ranked = reference_beam_decode(
            model, encode_history(table, history, model.order), trie, 20)
        assert request["plain"]["items"] == [i for i, _ in ranked]
        assert request["plain"]["scores"] == [s for _, s in ranked]
    half = len(served) // 2
    assert [r["plain"] for r in served[:half]] == [r["plain"] for r in served[half:]]


@pytest.fixture(scope="module")
def review_run(tmp_path_factory):
    """A world where one level-1 topic is hidden from the first proposal and
    15% of matches are dropped: reviews set items aside, so some test
    targets get an empty path. Built up to ``fit``."""
    root = tmp_path_factory.mktemp("review")
    world = make_world(branching=(2, 2, 2), n_items=260, seed=7)
    interactions = root / "interactions.jsonl"
    write_interactions(make_interactions(world, n_users=60, seed=8), interactions)
    config_path = _mock_config(
        root, world, interactions_path=str(interactions),
        build={"d_max": 3, "tau_split": 20},
        mock_hidden_categories=[world.taxonomy.level1[0]],
        mock_false_negative_rate=0.15)
    for stage in ("ingest", "build-vocab", "assign", "encode", "fit"):
        assert run(config_path, stage) == 0, stage
    return root, config_path


@pytest.mark.parametrize("simulator", ["oracle", "llm"])
def test_critique_eval_leaves_pathless_targets_unconstrained(review_run, simulator):
    root, config_path = review_run
    run_dir = root / "run"
    assert run(config_path, "critique-eval", "--simulator", simulator) == 0
    path_of = {row["item_id"]: row["path_names"]
               for row in read_jsonl(run_dir / "semids.jsonl")}
    targets = [target for target in read_splits(run_dir / "splits.jsonl").test.values()
               if target in path_of]
    pathless = sum(1 for target in targets if not path_of[target])
    payload = read_json(run_dir / "reports/critique_eval.json")
    assert pathless > 0
    assert payload["n_unconstrained"] == pathless
    assert payload["constrained"]["n_users"] == payload["vanilla"]["n_users"]
    asked = sum(row["calls"] for row in read_jsonl(run_dir / "ledger.jsonl")
                if row["template_id"] == "UserSimulator")
    assert asked == (len(targets) - pathless if simulator == "llm" else 0)


def test_stages_are_idempotent(workspace, capsys):
    root, config_path, _ = workspace
    capsys.readouterr()
    ledger_before = (root / "run/ledger.jsonl").read_bytes()
    stages = ("build-vocab", "assign", "evaluate", "critique-eval",
              "baseline-freeform", "report")
    for stage in stages:
        assert run(config_path, stage) == 0, stage
    out = capsys.readouterr().out
    for stage in stages:
        assert f"{stage}: up to date, skipping" in out, stage
    assert (root / "run/ledger.jsonl").read_bytes() == ledger_before


def test_a_skip_leaves_the_config_snapshot_alone(workspace, tmp_path, capsys):
    """A run whose effective config is the snapshot's leaves its bytes and
    mtime as they were; a flag that changes the config rewrites it, even
    when the stage itself skips."""
    root, config_path, _ = workspace
    run_dir = tmp_path / "run"
    shutil.copytree(root / "run", run_dir)
    config = {**read_json(config_path), "run_dir": str(run_dir)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run(config_path, "fit") == 0  # re-fits: the run directory moved
    snapshot = run_dir / "config.json"
    os.utime(snapshot, ns=(10**9, 10**9))
    written = snapshot.read_bytes()
    capsys.readouterr()
    assert run(config_path, "fit") == 0
    assert capsys.readouterr().out == "fit: up to date, skipping\n"
    assert snapshot.read_bytes() == written
    assert snapshot.stat().st_mtime_ns == 10**9
    assert run(config_path, "fit", "--beam", "10") == 0
    assert capsys.readouterr().out == "fit: up to date, skipping\n"
    assert read_json(snapshot) == json.loads(written) | {"beam_width": 10}
    assert snapshot.stat().st_mtime_ns != 10**9


def test_model_file_has_version_header(workspace):
    root, _, _ = workspace
    payload = json.loads((root / "run/model.bin").read_text())
    assert payload["format_version"] == SurrogateModel.FORMAT_VERSION


def test_fit_reruns_when_the_model_format_changes(workspace, tmp_path,
                                                  capsys, monkeypatch):
    root, config_path, _ = workspace
    shutil.copytree(root / "run", tmp_path / "run")
    config = {**read_json(config_path), "run_dir": str(tmp_path / "run")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for _ in range(2):  # the first run re-fits: the run directory moved
        assert run(config_path, "fit") == 0
    assert capsys.readouterr().out.endswith("fit: up to date, skipping\n")
    bumped = SurrogateModel.FORMAT_VERSION + 1
    monkeypatch.setattr(SurrogateModel, "FORMAT_VERSION", bumped)
    assert run(config_path, "fit") == 0
    assert capsys.readouterr().out.startswith("fit: order-3 model over ")
    assert read_json(tmp_path / "run/model.bin")["format_version"] == bumped


def test_build_report_n_semid_notation(workspace):
    root, _, _ = workspace
    payload = json.loads((root / "run/build_report.json").read_text())
    assert payload["n_semid"] == "2+1"


def test_semids_jsonl_schema(workspace):
    root, _, _ = workspace
    lines = (root / "run/semids.jsonl").read_text().strip().splitlines()
    row = json.loads(lines[0])
    assert set(row) == {"item_id", "tokens", "path_names"}
    assert all(isinstance(t, int) for t in row["tokens"])


def _mock_config(tmp_path, world, **extra):
    data = tmp_path / "data"
    data.mkdir()
    write_corpus(world.corpus, data / "corpus.jsonl")
    save_world(world, data / "world.json")
    config = {
        "run_dir": str(tmp_path / "run"),
        "backend": "mock",
        "seed": 7,
        "corpus_path": str(data / "corpus.jsonl"),
        "mock_world_path": str(data / "world.json"),
        "build": {"d_max": 2, "tau_split": 20},
        **extra,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_ingest_reads_interactions_in_place(tmp_path):
    world = make_world(branching=(3, 3), n_items=150, seed=5)
    interactions = tmp_path / "interactions.jsonl"
    write_interactions(make_interactions(world, n_users=40, seed=6), interactions)
    config_path = _mock_config(tmp_path, world, interactions_path=str(interactions))
    assert run(config_path, "ingest") == 0
    run_dir = tmp_path / "run"
    assert not (run_dir / "interactions.jsonl").exists()
    expected = tmp_path / "expected_splits.jsonl"
    corpus = load_corpus(tmp_path / "data" / "corpus.jsonl")
    write_splits(last_out_split(load_interactions(interactions, corpus)), expected)
    assert (run_dir / "splits.jsonl").read_bytes() == expected.read_bytes()


def test_budget_interrupt_then_resume(tmp_path):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)

    code = dispatch(["build-vocab", "--config", str(config_path),
                     "--budget-max-calls", "170"])
    assert code == 3
    assert (tmp_path / "run/vocab.checkpoint.json").exists()
    assert not (tmp_path / "run/vocab.json").exists()

    assert dispatch(["resume", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "run/build_report.json").read_text())
    refined = report["nodes_refined"]
    assert len(refined) == len(set(refined)) == 4  # root + 3 level-1 nodes
    vocab = json.loads((tmp_path / "run/vocab.json").read_text())
    depths = [n["depth"] for n in vocab["nodes"].values()]
    assert max(depths) == 2


def _calls(run_dir) -> int:
    return sum(row["calls"] for row in read_jsonl(run_dir / "ledger.jsonl"))


def test_build_vocab_continues_its_own_checkpoint(tmp_path, capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    (tmp_path / "whole").mkdir()
    (tmp_path / "split").mkdir()
    whole = _mock_config(tmp_path / "whole", world)
    assert dispatch(["build-vocab", "--config", str(whole)]) == 0
    split = _mock_config(tmp_path / "split", world)
    assert dispatch(["build-vocab", "--config", str(split),
                     "--budget-max-calls", "170"]) == 3
    capsys.readouterr()
    assert dispatch(["build-vocab", "--config", str(split)]) == 0
    assert capsys.readouterr().out.startswith("resuming: ")
    for name in ("vocab.json", "annotations.jsonl"):
        assert ((tmp_path / "split/run" / name).read_bytes()
                == (tmp_path / "whole/run" / name).read_bytes()), name
    # Finished nodes are not asked again: the second run issues fewer calls
    # than a whole build.
    assert _calls(tmp_path / "split/run") - 170 < _calls(tmp_path / "whole/run")


# Runs build-vocab and dies without any clean-up right after the build's
# second checkpoint, as a kill -9 between two nodes would leave it.
_KILLED_AFTER_SECOND_CHECKPOINT = """
import os, sys
from tagforge import builder, cli
save = builder.save_checkpoint
saved = []
def save_then_die(*args, **kwargs):
    save(*args, **kwargs)
    saved.append(1)
    if len(saved) == 2:
        os._exit(9)
builder.save_checkpoint = save_then_die
sys.exit(cli.dispatch(sys.argv[1:]))
"""


# Runs a stage and dies without any clean-up right after vocab.json lands,
# before the stage's other outputs and its manifest entry.
_KILLED_AFTER_VOCAB = """
import os, sys
from tagforge import cli
replace = os.replace
def replace_then_die(src, dst):
    replace(src, dst)
    if os.path.basename(dst) == "vocab.json":
        os._exit(9)
os.replace = replace_then_die
sys.exit(cli.dispatch(sys.argv[1:]))
"""


def _dispatch_killed(script: str, *argv: str) -> None:
    """Run ``script`` on ``argv`` in a child process that must die with 9."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    killed = subprocess.run([sys.executable, "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=300)
    assert killed.returncode == 9, killed.stderr


def test_ledger_counts_every_call_after_a_hard_kill(tmp_path):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)
    assert dispatch(["build-vocab", "--config", str(config_path),
                     "--budget-max-calls", "170"]) == 3
    _dispatch_killed(_KILLED_AFTER_SECOND_CHECKPOINT,
                     "build-vocab", "--config", str(config_path))
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    assert _calls(run_dir) == len(list(read_jsonl(run_dir / "transcript.jsonl")))


def test_a_stopped_rerun_leaves_no_current_entry(tmp_path, capsys):
    """A re-run at depth 1, killed after vocab.json lands, must not
    leave the depth-3 run's manifest entry over its depth-1 vocab.json."""
    world = make_world(branching=(2, 2, 2), n_items=260, seed=7)
    config_path = _mock_config(tmp_path, world, build={"d_max": 3, "tau_split": 20})
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    _dispatch_killed(_KILLED_AFTER_VOCAB,
                     "build-vocab", "--config", str(config_path), "--depth", "1")
    capsys.readouterr()
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    assert "up to date" not in capsys.readouterr().out
    assert read_json(tmp_path / "run/vocab.json")["config"]["d_max"] == 3


def test_checkpoint_with_the_old_ledger_key_is_continued(tmp_path, capsys):
    # Checkpoints used to carry a copy of the counters under "ledger".
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)
    assert dispatch(["build-vocab", "--config", str(config_path),
                     "--budget-max-calls", "170"]) == 3
    checkpoint = tmp_path / "run/vocab.checkpoint.json"
    snapshot = {f"{row['role']}/{row['template_id']}":
                {key: row[key] for key in ("calls", "retries", "token_estimate")}
                for row in read_jsonl(tmp_path / "run/ledger.jsonl")}
    checkpoint.write_text(json.dumps(read_json(checkpoint) | {"ledger": snapshot}))
    capsys.readouterr()
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.startswith("resuming: ")
    assert "ledger" not in read_json(checkpoint)


@pytest.mark.parametrize("argv", [["resume", "--depth", "1"],
                                  ["build-vocab", "--force"]],
                         ids=["other-inputs", "force"])
def test_build_vocab_starts_over(tmp_path, capsys, argv):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    (tmp_path / "fresh").mkdir()
    (tmp_path / "split").mkdir()
    fresh = _mock_config(tmp_path / "fresh", world)
    assert dispatch([*argv, "--config", str(fresh)]) == 0
    split = _mock_config(tmp_path / "split", world)
    assert dispatch(["build-vocab", "--config", str(split),
                     "--budget-max-calls", "170"]) == 3
    capsys.readouterr()
    assert dispatch([*argv, "--config", str(split)]) == 0
    assert "resuming" not in capsys.readouterr().out
    for name in ("vocab.json", "annotations.jsonl"):
        assert ((tmp_path / "split/run" / name).read_bytes()
                == (tmp_path / "fresh/run" / name).read_bytes()), name
    d_max = 1 if "--depth" in argv else 2
    assert read_json(tmp_path / "split/run/vocab.json")["config"]["d_max"] == d_max


def test_embed_dim_is_a_build_vocab_input(tmp_path, capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    other = tmp_path / "embed8.json"
    other.write_text(json.dumps(read_json(config_path) | {"embed_dim": 8}))
    capsys.readouterr()
    assert dispatch(["build-vocab", "--config", str(other)]) == 0
    out = capsys.readouterr().out
    assert "up to date" not in out and "build-vocab: " in out


def _assign_calls(run_dir) -> int:
    return sum(row["calls"] for row in read_jsonl(run_dir / "ledger.jsonl")
               if row["template_id"] == "AssignItem")


def test_resumed_build_writes_the_uninterrupted_annotations(tmp_path):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    (tmp_path / "whole").mkdir()
    (tmp_path / "split").mkdir()
    whole = _mock_config(tmp_path / "whole", world)
    assert dispatch(["build-vocab", "--config", str(whole)]) == 0
    split = _mock_config(tmp_path / "split", world)
    assert dispatch(["build-vocab", "--config", str(split),
                     "--budget-max-calls", "170"]) == 3
    assert dispatch(["resume", "--config", str(split)]) == 0
    expected = (tmp_path / "whole/run/annotations.jsonl").read_bytes()
    assert (tmp_path / "split/run/annotations.jsonl").read_bytes() == expected
    # root + 3 level-1 nodes, and assign then asks nothing
    assert len(expected.splitlines()) == 4
    built = _assign_calls(tmp_path / "split/run")
    assert dispatch(["assign", "--config", str(split)]) == 0
    assert _assign_calls(tmp_path / "split/run") == built


def test_assign_without_annotations_asks_every_level(tmp_path, small_build):
    world, state = small_build
    config_path = _mock_config(tmp_path, world)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    state.tree.save(run_dir / "vocab.json")
    assert dispatch(["assign", "--config", str(config_path)]) == 0
    assert _assign_calls(run_dir) == len(world.corpus) * state.tree.max_depth()
    assert len(list(read_jsonl(run_dir / "transcript.jsonl"))) == \
        _assign_calls(run_dir)


def test_assign_flags_a_refused_item_and_exits_0(tmp_path, monkeypatch,
                                                 small_build):
    world, state = small_build
    config_path = _mock_config(tmp_path, world, parallelism=2)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    state.tree.save(run_dir / "vocab.json")
    refused = world.corpus.item_ids[3]
    monkeypatch.setattr(mockllm, "MockLLMBackend", lambda *args, **kwargs: FaultBackend(
        MockLLMBackend(*args, **kwargs), f"[{refused}]", BackendRefusalError))
    assert dispatch(["assign", "--config", str(config_path)]) == 0
    flagged = {row["item_id"]: row["flag"]
               for row in read_jsonl(run_dir / "assignments.jsonl") if row["flag"]}
    assert flagged == {refused: "refused: HTTP 400: request refused"}


@pytest.mark.parametrize("stage", ["assign", "baseline-freeform"])
def test_budget_exit_keeps_ledger_and_leaves_stage_unmarked(
        tmp_path, capsys, small_build, stage):
    world, state = small_build
    config_path = _mock_config(tmp_path, world, parallelism=4)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    state.tree.save(run_dir / "vocab.json")

    code = dispatch([stage, "--config", str(config_path),
                     "--budget-max-calls", "20"])
    assert code == 3
    assert capsys.readouterr().err.startswith("ERR:budget-exhausted:")
    calls = sum(row["calls"] for row in read_jsonl(run_dir / "ledger.jsonl"))
    assert calls == len(list(read_jsonl(run_dir / "transcript.jsonl"))) == 20
    manifest = (run_dir / "manifest.json")
    assert not manifest.exists() or stage not in read_json(manifest)

    assert dispatch([stage, "--config", str(config_path)]) == 0
    assert stage in read_json(manifest)


def test_parallelism_change_reissues_no_call(tmp_path, capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world, parallelism=8)
    ledger = tmp_path / "run/ledger.jsonl"
    for stage in ("build-vocab", "assign"):
        assert dispatch([stage, "--config", str(config_path)]) == 0, stage
    before = ledger.read_bytes()
    capsys.readouterr()
    for stage in ("build-vocab", "assign"):
        assert dispatch([stage, "--config", str(config_path),
                         "--parallelism", "4"]) == 0, stage
        assert capsys.readouterr().out == f"{stage}: up to date, skipping\n"
    assert ledger.read_bytes() == before
    assert "parallelism" not in read_json(tmp_path / "run/vocab.json")["config"]


def test_parallelism_changes_no_output(tmp_path, monkeypatch):
    """The review world, with a seeded 5% of annotation prompts refused:
    reflection cycles, reviews and per-item failures at 1 and 4 threads."""
    world = make_world(branching=(2, 2, 2), n_items=260, seed=7)
    monkeypatch.setattr(mockllm, "MockLLMBackend", lambda *args, **kwargs: FaultBackend(
        MockLLMBackend(*args, **kwargs), "You are annotating catalog items",
        BackendRefusalError, rate=0.05, seed=3))
    outputs = {}
    for parallelism in (1, 4):
        root = tmp_path / f"p{parallelism}"
        root.mkdir()
        config_path = _mock_config(
            root, world, parallelism=parallelism,
            build={"d_max": 3, "tau_split": 20},
            mock_hidden_categories=[world.taxonomy.level1[0]],
            mock_false_negative_rate=0.15)
        for stage in ("build-vocab", "assign"):
            assert dispatch([stage, "--config", str(config_path)]) == 0, stage
        run_dir = root / "run"
        transcript = sorted(
            json.dumps({k: v for k, v in row.items() if k != "latency_ms"},
                       sort_keys=True)
            for row in read_jsonl(run_dir / "transcript.jsonl"))
        outputs[parallelism] = (
            {name: (run_dir / name).read_bytes()
             for name in ("vocab.json", "assignments.jsonl", "ledger.jsonl")},
            transcript)
    files, transcript = outputs[1]
    assert outputs[4] == (files, transcript)
    flags = [row["flag"] for row in read_jsonl(tmp_path / "p1/run/assignments.jsonl")]
    assert "refused: HTTP 400: request refused" in flags
    assert any(row["cycles"] and len(row["cycles"]) > 1
               for row in read_jsonl(tmp_path / "p1/run/refinement_logs.jsonl"))


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("stage", ["build-vocab", "assign"])
def test_parallelism_below_one_is_config_error(tmp_path, capsys, small_build,
                                               source, stage):
    world, state = small_build
    config_path = _mock_config(tmp_path, world,
                               **({"parallelism": 0} if source == "config" else {}))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    state.tree.save(run_dir / "vocab.json")
    flag = ["--parallelism", "-2"] if source == "flag" else []
    assert dispatch([stage, "--config", str(config_path), *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERR:config:") and "parallelism" in err
    assert not (run_dir / "ledger.jsonl").exists()


def test_transport_outage_interrupts_build_then_resume(tmp_path, monkeypatch,
                                                       capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world, max_retries=1, backoff_base=0.0)
    backends = []

    def level1_outage(*args, **kwargs):
        # Node-level init prompts below the root carry the parent category.
        backends.append(FaultBackend(MockLLMBackend(*args, **kwargs),
                                     "Parent category:"))
        return backends[-1]

    monkeypatch.setattr(mockllm, "MockLLMBackend", level1_outage)
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 3
    assert capsys.readouterr().err.startswith("ERR:transport-exhausted:")
    run_dir = tmp_path / "run"
    assert (run_dir / "vocab.checkpoint.json").exists()
    assert not (run_dir / "vocab.json").exists()
    retries = sum(row["retries"] for row in read_jsonl(run_dir / "ledger.jsonl"))
    assert retries > 0
    assert read_json(run_dir / "vocab.checkpoint.json")["completed"]

    monkeypatch.setattr(mockllm, "MockLLMBackend", MockLLMBackend)
    assert dispatch(["resume", "--config", str(config_path)]) == 0
    refined = read_json(run_dir / "build_report.json")["nodes_refined"]
    assert len(refined) == len(set(refined)) == 4  # root + 3 level-1 nodes


def test_report_prints_latency_per_template(tmp_path, capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)
    for stage in ("build-vocab", "baseline-freeform"):
        assert dispatch([stage, "--config", str(config_path)]) == 0, stage
    capsys.readouterr()
    assert dispatch(["report", "--config", str(config_path)]) == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first.startswith("report: wrote ")
    run_dir = tmp_path / "run"
    latencies = {}
    for row in read_jsonl(run_dir / "transcript.jsonl"):
        latencies.setdefault(f"{row['role']}/{row['template_id']}",
                             []).append(row["latency_ms"])

    def percentile(values, q):  # linear between closest ranks
        values = sorted(values)
        position = (len(values) - 1) * q / 100
        low = int(position)
        high = min(low + 1, len(values) - 1)
        return values[low] + (values[high] - values[low]) * (position - low)

    expected = [f"latency {key} calls={len(values)} "
                f"p50_ms={round(percentile(values, 50), 3)} "
                f"p95_ms={round(percentile(values, 95), 3)} "
                f"max_ms={max(values)}"
                for key, values in sorted(latencies.items())]
    assert lines == expected
    ledger = {f"{row['role']}/{row['template_id']}": row["calls"]
              for row in read_jsonl(run_dir / "ledger.jsonl")}
    assert {key: len(values) for key, values in latencies.items()} == ledger
    assert {"annotator/AssignItem", "annotator/FreeformTag"} <= set(ledger)
    summary = read_json(run_dir / "reports/summary.json")["latency"]
    assert [f"latency {key} calls={row['calls']} p50_ms={row['p50_ms']} "
            f"p95_ms={row['p95_ms']} max_ms={row['max_ms']}"
            for key, row in summary.items()] == expected


def test_report_owns_the_coverage_csv(tmp_path, capsys):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    # A hidden topic and dropped matches make the root run several cycles.
    config_path = _mock_config(tmp_path, world, mock_false_negative_rate=0.15,
                               mock_hidden_categories=[world.taxonomy.level1[0]])
    csv_path = tmp_path / "run/reports/coverage_deltas.csv"
    assert dispatch(["report", "--config", str(config_path)]) == 0
    assert csv_path.read_text().splitlines() == ["level,cycle,delta"]
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    assert dispatch(["report", "--config", str(config_path)]) == 0
    written = csv_path.read_bytes()
    assert len(written.splitlines()) > 1
    capsys.readouterr()
    csv_path.unlink()
    assert dispatch(["report", "--config", str(config_path)]) == 0
    assert "up to date" not in capsys.readouterr().out
    assert csv_path.read_bytes() == written


def test_baseline_freeform_writes_only_the_tag_table_and_its_summary(tmp_path):
    world = make_world(branching=(3,), n_items=30, seed=7)
    config_path = _mock_config(tmp_path, world)
    assert dispatch(["baseline-freeform", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    written = {path.relative_to(run_dir).as_posix()
               for path in run_dir.rglob("*") if path.is_file()}
    # Beside the run's own config, manifest, ledger, transcript and lock.
    assert written == {"config.json", "manifest.json", "ledger.jsonl",
                       "transcript.jsonl", ".lock", "freeform_tags.jsonl",
                       "reports/freeform.json"}
    summary = read_json(run_dir / "reports/freeform.json")
    assert set(summary) == {"n_items", "n_distinct_tags", "utilization",
                            "failed_items"}
    assert summary["n_items"] == 30 and summary["failed_items"] == 0
    rows = read_jsonl(run_dir / "freeform_tags.jsonl")
    assert [row["item_id"] for row in rows] == sorted(world.corpus.item_ids)


def test_refused_node_init_fails_only_that_node(tmp_path, monkeypatch):
    world = make_world(branching=(3, 3), n_items=150, seed=7)
    config_path = _mock_config(tmp_path, world)
    # Node-level init prompts below the root carry the parent category.
    monkeypatch.setattr(mockllm, "MockLLMBackend", lambda *args, **kwargs: FaultBackend(
        MockLLMBackend(*args, **kwargs), "Parent category:", BackendRefusalError))
    assert dispatch(["build-vocab", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    report = read_json(run_dir / "build_report.json")
    level1 = read_json(run_dir / "vocab.json")["nodes"]
    assert len(report["nodes_failed"]) == 3
    assert all(level1[rule_id]["depth"] == 1 for rule_id in report["nodes_failed"])
    notes = {row["rule_id"]: row["notes"]
             for row in read_jsonl(run_dir / "refinement_logs.jsonl")}
    for rule_id in report["nodes_failed"]:
        assert notes[rule_id] == [f"failed: {rule_id}: init vocabulary failed: "
                                  "HTTP 400: request refused"]


def test_locked_run_keeps_config_snapshot(workspace, tmp_path, capsys):
    root, config_path, _ = workspace
    snapshot = (root / "run" / "config.json").read_bytes()
    other = json.loads(config_path.read_text()) | {"beam_width": 5}
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    with held_flock(root / "run" / ".lock"):
        assert run(other_path, "evaluate") == 4
        assert capsys.readouterr().err.startswith("ERR:locked:")
    assert (root / "run" / "config.json").read_bytes() == snapshot


def test_full_rank_cutoff_above_beam_width_is_config_error(workspace, tmp_path,
                                                          capsys):
    root, config_path, _ = workspace
    run_dir = tmp_path / "run"
    shutil.copytree(root / "run", run_dir)
    critique_before = (run_dir / "reports/critique_eval.json").read_bytes()
    base = json.loads(config_path.read_text()) | {"run_dir": str(run_dir),
                                                  "eval_ks": [5, 50]}
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps(base | {"eval_mode": "full"}))
    for stage in ("evaluate", "critique-eval"):
        capsys.readouterr()
        assert run(full_path, stage) == 2, stage
        err = capsys.readouterr().err
        assert err.startswith("ERR:config:") and "beam width 20" in err, stage
    assert not (run_dir / "reports/eval_full.json").exists()
    assert (run_dir / "reports/critique_eval.json").read_bytes() == critique_before
    sampled_path = tmp_path / "sampled.json"
    sampled_path.write_text(json.dumps(base | {"eval_mode": "sampled"}))
    assert run(sampled_path, "evaluate", "--force") == 0
    report = read_json(run_dir / "reports/eval_sampled.json")
    assert set(report["recall"]) == {"5", "50"}


def test_lock_file_blocks_second_writer(workspace, capsys):
    root, config_path, _ = workspace
    with held_flock(root / "run" / ".lock"):
        code = run(config_path, "report")
        captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("ERR:locked:")


def test_a_writer_killed_with_sigkill_leaves_no_lock(workspace, capsys):
    root, config_path, _ = workspace
    holder = ("import sys, time\n"
              "from tagforge.runs import RunLock, RunPaths\n"
              "with RunLock(RunPaths(sys.argv[1])):\n"
              "    print('locked', flush=True)\n"
              "    time.sleep(60)\n")
    child = subprocess.Popen([sys.executable, "-c", holder, str(root / "run")],
                             stdout=subprocess.PIPE, text=True, env=_src_env())
    try:
        assert child.stdout.readline() == "locked\n"
        assert run(config_path, "report") == 4
        capsys.readouterr()
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert run(config_path, "report") == 0
    assert capsys.readouterr().err == ""


def test_a_lock_file_naming_a_live_pid_does_not_block(workspace, capsys):
    """The lock is the kernel's, not the file's content: a leftover file
    naming a running process (a recycled PID) blocks nobody."""
    root, config_path, _ = workspace
    lock = root / "run" / ".lock"
    lock.write_text(str(os.getpid()))
    assert run(config_path, "report") == 0
    assert capsys.readouterr().err == ""
    assert lock.exists()


# A sample value per flag; --run-dir's is set per test.
FLAG_VALUES = {"--run-dir": None, "--backend": "http", "--seed": 11,
               "--parallelism": 3, "--beam": 7, "--branching-factor": 1,
               "--depth": 1, "--budget-max-calls": 50, "--simulator": "llm"}


def _set_key(payload: dict, key: str, value) -> None:
    *blocks, leaf = key.split(".")
    for block in blocks:
        payload = payload.setdefault(block, {})
    payload[leaf] = value


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_flag_and_config_key_give_the_same_config(workspace, tmp_path, flag):
    assert set(FLAG_VALUES) == set(cli.FLAGS)
    root, config_path, _ = workspace
    run_dir = tmp_path / "run"
    shutil.copytree(root / "run", run_dir)
    base = json.loads(config_path.read_text()) | {"run_dir": str(run_dir)}
    key, value = cli.FLAGS[flag].key, FLAG_VALUES[flag]
    if flag == "--run-dir":
        base["run_dir"], value = str(tmp_path / "elsewhere"), str(run_dir)
    stage = cli.FLAGS[flag].stage or "report"
    flagged, keyed = tmp_path / "flagged.json", tmp_path / "keyed.json"
    flagged.write_text(json.dumps(base))
    payload = copy.deepcopy(base)
    _set_key(payload, key, value)
    keyed.write_text(json.dumps(payload))

    assert dispatch([stage, "--config", str(flagged), flag, str(value)]) == 0
    from_flag = (run_dir / "config.json").read_bytes()
    assert dispatch([stage, "--config", str(keyed)]) == 0
    assert (run_dir / "config.json").read_bytes() == from_flag
    written = read_json(run_dir / "config.json")
    for part in key.split("."):
        written = written[part]
    assert written == value


@pytest.mark.parametrize("flags, extra", [
    pytest.param(["--depth", "0"], {}, id="--depth 0"),
    pytest.param([], {"build": {"d_max": 0}}, id="build.d_max 0"),
    pytest.param(["--branching-factor", "-1"], {}, id="--branching-factor -1"),
    pytest.param([], {"build": {"branching_factor": -1}},
                 id="build.branching_factor -1"),
    pytest.param(["--beam", "0"], {}, id="--beam 0"),
    pytest.param([], {"beam_width": 0}, id="beam_width 0"),
    pytest.param(["--parallelism", "0"], {}, id="--parallelism 0"),
    pytest.param([], {"parallelism": 0}, id="parallelism 0"),
    pytest.param([], {"build": {"d_max": "3"}}, id="build.d_max '3'"),
    pytest.param([], {"build": {"seed": 99}}, id="build.seed"),
    pytest.param([], {"build": {"parallelism": 2}}, id="build.parallelism"),
    pytest.param([], {"build": {"item_text_budget": 1500}},
                 id="build.item_text_budget"),
    *(pytest.param([], {key: value}, id=key)
      for key, value in [("n_slots", 4), ("freeform_n_tags", 3),
                         ("freeform_min_f", 10), ("freeform_max_f", 2000),
                         ("freeform_bins", 4), ("freeform_kmeans_k", 50),
                         ("assign_mode", "one-shot")]),
    *(pytest.param([], {"build": {key: value}}, id=f"build.{key} {value}")
      for key, value in [("c_max", 0), ("n_target_rules", 0),
                         ("proposal_batch", 0), ("ticket_examples_cap", 0),
                         ("min_error_reports", -1), ("tau_anom", -1)]),
    *(pytest.param([], {key: value}, id=f"{key} {value}")
      for key, value in [("surrogate_order", 0), ("embed_dim", 0),
                         ("n_negatives", 0), ("n_negatives", -1),
                         ("eval_ks", []), ("eval_ks", [0]),
                         ("eval_ks", [5, 0]),
                         ("surrogate_alpha", -1), ("backoff_base", -0.5),
                         ("max_retries", -1), ("budget_max_calls", -1),
                         ("mock_false_negative_rate", 2.0),
                         ("mock_false_negative_rate", -0.1)]),
])
def test_bad_value_is_config_error_before_any_call(tmp_path, capsys, small_world,
                                                  flags, extra):
    config_path = _mock_config(tmp_path, small_world, **extra)
    assert dispatch(["build-vocab", "--config", str(config_path), *flags]) == 2
    assert capsys.readouterr().err.startswith("ERR:config:")
    # Rejected before the run directory, its ledger or transcript is made.
    assert not (tmp_path / "run").exists()


def test_http_backend_needs_an_endpoint_and_sends_nothing_when_made(
        tmp_path, capsys, small_world, monkeypatch):
    config_path = _mock_config(tmp_path, small_world, backend="http")
    assert run(config_path, "ingest") == 0
    assert run(config_path, "build-vocab") == 2
    assert capsys.readouterr().err.startswith(
        "ERR:config: http backend requires http_endpoint")
    sent = []
    monkeypatch.setattr(urllib.request.OpenerDirector, "open",
                        lambda self, *args, **kwargs: sent.append(args))
    cfg = cli.RunConfig(run_dir=str(tmp_path / "http"), backend="http",
                        http_endpoint="http://localhost:9/v1/chat",
                        http_architect_model="big", http_annotator_model="small")
    gateway = cli.make_gateway(cfg, RunPaths(cfg.run_dir))
    backends = gateway._backends
    assert {role: type(b) for role, b in backends.items()} == {
        AgentRole.ARCHITECT: HttpBackend, AgentRole.ANNOTATOR: HttpBackend}
    assert backends[AgentRole.ARCHITECT].model == "big"
    assert backends[AgentRole.ANNOTATOR].model == "small"
    assert {b.endpoint for b in backends.values()} == {cfg.http_endpoint}
    assert sent == []


@pytest.mark.parametrize("key, value", [("parallelism", "4"),
                                        ("beam_width", "20"),
                                        ("eval_ks", [5, "10"]),
                                        ("strict_ingest", 1)])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, key, value):
    run_dir = tmp_path / "r"
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"run_dir": str(run_dir), key: value}))
    code = dispatch(["report", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"ERR:config: config key {key!r} must be")
    # Rejected before the run directory, its lock or config.json is made.
    assert not run_dir.exists()


@pytest.mark.parametrize("key, stage", [("backend", "build-vocab"),
                                        ("eval_mode", "evaluate"),
                                        ("simulator", "critique-eval")])
def test_value_outside_its_choices_is_config_error(tmp_path, capsys, small_world,
                                                  key, stage):
    config_path = _mock_config(tmp_path, small_world, **{key: "bogus"})
    assert dispatch([stage, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"ERR:config: config key {key!r} must be")
    # Rejected before the run directory, its lock or config.json is made.
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("http_endpoint", "http://b.invalid/v1"),
                                        ("http_architect_model", "other"),
                                        ("http_annotator_model", "other"),
                                        ("http_temperature", 0.7)])
def test_backend_identity_is_an_llm_stage_input(tmp_path, key, value):
    base = {"run_dir": str(tmp_path / "run"), "backend": "http",
            "http_endpoint": "http://a.invalid/v1", "simulator": "llm",
            "corpus_path": str(tmp_path / "corpus.jsonl")}

    def digest(payload, name):
        cfg = cli.RunConfig.from_json(payload)
        run = cli.StageRun(cfg, RunPaths(tmp_path / "run"), force=False)
        return inputs_hash(*cli.STAGES[name].inputs(run))

    for name in ("build-vocab", "assign", "baseline-freeform", "critique-eval"):
        assert digest(base, name) != digest(base | {key: value}, name), name


# A type-valid value other than the default for every config key but
# run_dir, whose paths are hashed into the digests anyway.
OTHER_VALUES = {
    "backend": "http", "seed": 11, "corpus_path": "other/corpus.jsonl",
    "interactions_path": "other/interactions.jsonl", "strict_ingest": False,
    "build": {"d_max": 2}, "parallelism": 3,
    "embed_dim": 64, "surrogate_order": 2, "surrogate_alpha": 0.5,
    "beam_width": 30, "eval_mode": "sampled", "eval_ks": [5, 10],
    "n_negatives": 50, "simulator": "llm", "budget_max_calls": 100,
    "max_retries": 1, "backoff_base": 0.1, "mock_world_path": "other/world.json",
    "mock_hidden_categories": ["x"], "mock_false_negative_rate": 0.1,
    "http_endpoint": "http://b.invalid/v1", "http_architect_model": "other",
    "http_annotator_model": "other", "http_auth_env": "OTHER_KEY",
    "http_temperature": 0.7,
}
# The README's list of the keys that re-run no stage.
RERUNS_NO_STAGE = {"parallelism", "budget_max_calls", "max_retries",
                   "backoff_base", "http_auth_env"}


def test_every_config_key_is_a_stage_input_or_reruns_no_stage(tmp_path):
    """A key that changes no stage digest and is not on the list is read by
    no stage, or its change leaves stale outputs current."""
    defaults = cli.RunConfig()
    keys = {f.name for f in dataclasses.fields(defaults)} - {"run_dir"}
    assert set(OTHER_VALUES) == keys
    assert all(getattr(defaults, key) != value for key, value in OTHER_VALUES.items())
    base = {"run_dir": str(tmp_path / "run"),
            "corpus_path": str(tmp_path / "corpus.jsonl")}

    def digests(payload):
        run = cli.StageRun(cli.RunConfig.from_json(payload),
                           RunPaths(tmp_path / "run"), force=False)
        return {name: inputs_hash(*stage.inputs(run))
                for name, stage in cli.STAGES.items()}

    before = digests(base)
    inert = {key for key, value in OTHER_VALUES.items()
             if digests(base | {key: value}) == before}
    assert inert == RERUNS_NO_STAGE


@pytest.mark.parametrize("stage", ["fit", "recommend", "evaluate", "critique-eval"])
def test_decode_stage_names_the_missing_file(tmp_path, capsys, small_world, stage):
    config_path = _mock_config(tmp_path, small_world)
    assert dispatch([stage, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "ERR:stage: splits.jsonl missing; run ingest first")
    (tmp_path / "run" / "splits.jsonl").write_text("")
    assert dispatch([stage, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "ERR:stage: semids.jsonl missing; run encode first")


def test_config_accepts_null_for_optional_fields(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "run_dir": str(tmp_path / "r"), "http_endpoint": None,
        "budget_max_calls": None, "corpus_path": None, "mock_world_path": None,
        "surrogate_alpha": 1}))
    assert dispatch(["report", "--config", str(config_path)]) == 0
    snapshot = read_json(tmp_path / "r/config.json")
    assert snapshot["http_endpoint"] is None and snapshot["surrogate_alpha"] == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"run_dir": str(tmp_path / "r"),
                                       "no_such_option": 1}))
    code = dispatch(["report", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("ERR:config:")


def test_missing_stage_reports_machine_error(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"run_dir": str(tmp_path / "run"),
                                       "backend": "mock",
                                       "mock_world_path": "nowhere.json"}))
    code = dispatch(["encode", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("ERR:stage:")


def test_non_gateway_commands_never_touch_network(workspace, monkeypatch):
    root, config_path, _ = workspace

    def refuse(*args, **kwargs):
        raise AssertionError("network connection attempted")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    for command in ("encode", "fit", "evaluate", "report"):
        assert run(config_path, command) == 0


def test_console_entrypoint_help():
    out = subprocess.run([sys.executable, "-m", "tagforge", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "build-vocab" in out.stdout
    # Each flag's help names the config key it overrides.
    out = subprocess.run([sys.executable, "-m", "tagforge", "critique-eval",
                          "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    text = " ".join(out.stdout.split())
    for flag, spec in cli.FLAGS.items():
        assert re.search(rf"{flag} \S+ overrides config key {re.escape(spec.key)}"
                         rf"( |$)", text), flag


# What only the clustering stages (build-vocab, baseline-freeform) and the
# http backend may load.
HEAVY_MODULES = ("numpy", "requests", "tagforge.clustering", "tagforge.refinement",
                 "tagforge.builder", "tagforge.freeform")
# What only the stage bodies that run them (and the mock backend) load.
STAGE_MODULES = ("tagforge.assignment", "tagforge.decoding", "tagforge.evalkit",
                 "tagforge.mockllm", "tagforge.planted")


def _src_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_heavy_module():
    modules = HEAVY_MODULES + STAGE_MODULES
    probe = ("import json, sys, tagforge.cli; "
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_src_env(), check=True)
    assert json.loads(out.stdout) == []


def test_ingest_process_loads_no_numpy(tmp_path):
    world = make_world(branching=(2,), n_items=20, seed=3)
    write_corpus(world.corpus, tmp_path / "corpus.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"run_dir": str(tmp_path / "run"),
                                       "corpus_path": str(tmp_path / "corpus.jsonl")}))
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "tagforge",
                          "ingest", "--config", str(config_path)],
                         capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr
    # -X importtime writes "import time: self | cumulative | module" lines.
    loaded = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "tagforge.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("numpy", "requests")}
    assert not loaded & set(HEAVY_MODULES)
