"""In-process operations of the workloads: serving requests and building the
decoder, each timed from inside the process that does the work.

Run as ``python3 perfbench/worker.py OPERATION ARGS.json RESULT.json`` with
``src`` on ``PYTHONPATH``; the traced run calls the same functions directly.
Each operation times its own work first and only then gathers what the
output checks need, so no check time enters a timing. Program functions are
called through their modules, where the traced run's wrappers sit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from tagforge import assignment as asg
from tagforge import cli, corpus
from tagforge import decoding as dec
from tagforge.runs import RunPaths
from tagforge.vocab import VocabularyTree


def _ranking(model, table, context, ranked) -> dict:
    return {"items": [item_id for item_id, _ in ranked],
            "scores": [score for _, score in ranked],
            "rescored": [model.score_sequence(context, list(table.row_of(i).tokens))
                         for i, _ in ranked]}


def serve(run_dir: str, beam_width: int, passes: int = 1) -> dict:
    """Plain requests (encode_history + beam_decode), one per test user in
    each of ``passes`` passes, served from a finished pipeline run directory."""
    started = perf_counter()
    paths = RunPaths(Path(run_dir))
    split = corpus.read_splits(paths.splits)
    table = asg.SemidTable.load(paths.semids, paths.token_map)
    model = dec.SurrogateModel.load(paths.model)
    trie = dec.build_trie(table)
    known = {row.item_id for row in table.rows}
    served = []
    for user_id in sorted(split.test) * passes:
        history = [i for i in split.train[user_id] if i in known]
        t0 = perf_counter()
        context = dec.encode_history(table, history, model.order)
        ranked = dec.beam_decode(model, context, trie, beam_width)
        served.append((user_id, context, ranked, perf_counter() - t0))
    timed_s = perf_counter() - started
    requests = [{"user_id": user_id, "target": split.test[user_id], "ms": seconds * 1e3,
                 "plain": _ranking(model, table, context, ranked)}
                for user_id, context, ranked, seconds in served]
    return {"timed_s": timed_s, "requests": requests}


def decode(config: str, data: str, users: str) -> dict:
    """Fit the surrogate and build the trie, then serve each sampled user a
    plain request and a critique-constrained one whose section comes from the
    user simulator through the gateway."""
    started = perf_counter()
    data_dir = Path(data)
    cfg = cli.RunConfig.load(config)
    paths = RunPaths(Path(cfg.run_dir))
    paths.ensure()
    split = corpus.read_splits(data_dir / "splits.jsonl")
    table = asg.SemidTable.load(data_dir / "semids.jsonl", data_dir / "token_map.json")
    model = dec.fit_surrogate(split, table, order=cfg.surrogate_order,
                              alpha=cfg.surrogate_alpha)
    trie = dec.build_trie(table)
    build_s = perf_counter() - started
    tree = VocabularyTree.load(data_dir / "vocab.json")
    items = corpus.load_corpus(data_dir / "corpus.jsonl")
    gateway = cli.make_gateway(cfg, paths)
    known = {row.item_id for row in table.rows}
    served = []
    for user_id in json.loads(Path(users).read_text(encoding="utf-8")):
        history = [i for i in split.train[user_id] if i in known]
        t0 = perf_counter()
        context = dec.encode_history(table, history, model.order)
        plain = dec.beam_decode(model, context, trie, cfg.beam_width)
        t1 = perf_counter()
        allowed = dec.simulate_user(split.test[user_id], items, table, tree,
                                    mode="llm", gateway=gateway)
        critique_context = dec.encode_history(table, history, model.order)
        constrained = dec.beam_decode(model, critique_context, trie, cfg.beam_width,
                                      allowed_level1=allowed)
        served.append((user_id, context, plain, critique_context, constrained,
                       sorted(allowed), t1 - t0))
    gateway.ledger.save_jsonl(paths.ledger)
    timed_s = perf_counter() - started
    requests = [{"user_id": user_id, "target": split.test[user_id], "ms": seconds * 1e3,
                 "plain": _ranking(model, table, context, plain),
                 "constrained": _ranking(model, table, critique_context, constrained),
                 "allowed": allowed}
                for user_id, context, plain, critique_context, constrained, allowed, seconds
                in served]
    return {"timed_s": timed_s, "build_s": build_s, "requests": requests}


OPERATIONS = {"serve": serve, "decode": decode}


def main(argv: list[str]) -> int:
    name, args_path, result_path = argv
    kwargs = json.loads(Path(args_path).read_text(encoding="utf-8"))
    result = OPERATIONS[name](**kwargs)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
