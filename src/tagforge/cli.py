"""Pipeline operator surface.

Subcommands run one stage each against a run directory: ingest,
build-vocab, assign, encode, fit, recommend, evaluate, critique-eval,
baseline-freeform, report, resume. Config comes from a JSON file
(``--config``); each flag of :data:`FLAGS` overrides one of its keys, and
flag and file values pass the same checks of :meth:`RunConfig.from_json`.
Every subcommand is an entry of ``STAGES`` run by :func:`run_stage`, which
skips it when the run manifest says its inputs are unchanged, else drops its
manifest entry before the body writes, and owns the gateway's close (which
saves the ledger) and the exit codes; a lock file keeps writers exclusive.
Each stage imports the modules only its body runs (``builder``,
``clustering`` and ``freeform``, which load numpy; ``assignment``,
``decoding``, ``evalkit``; ``mockllm`` and ``planted`` in
:func:`make_gateway`), so that a stage that skips, and every other stage's
process, pays for none of them; ``fit``'s digest alone reads ``decoding``,
for the model format version. ``assign`` has one path, the per-level
descent.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Literal

from .corpus import (IngestReport, last_out_split, load_corpus,
                     load_interactions, read_splits, write_corpus, write_splits)
from .gateway import (AgentRole, BudgetExhaustedError, BuildInterrupted,
                      CallLedger, Gateway, HttpBackend, TransportExhaustedError,
                      transcript_latency)
from .runs import (RunDirError, RunLock, RunPaths, atomic_open, inputs_hash,
                   mark_stage, read_json, read_jsonl, stage_is_current,
                   unmark_stage, write_json, write_jsonl)
from .vocab import BuildConfig, VocabularyError, VocabularyTree, log_from_json


class CliError(RuntimeError):
    def __init__(self, code: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


@dataclass
class RunConfig:
    run_dir: str = "runs/default"
    backend: Literal["mock", "http"] = "mock"
    seed: int = 7
    corpus_path: str | None = None
    interactions_path: str | None = None
    strict_ingest: bool = True
    build: dict = field(default_factory=dict)
    parallelism: int = 8
    embed_dim: int = 256
    surrogate_order: int = 3
    surrogate_alpha: float = 0.1
    beam_width: int = 20
    eval_mode: Literal["full", "sampled"] = "full"
    eval_ks: list[int] = field(default_factory=lambda: [5, 10, 20])
    n_negatives: int = 100
    simulator: Literal["oracle", "llm"] = "oracle"
    budget_max_calls: int | None = None
    max_retries: int = 3
    backoff_base: float = 0.5
    mock_world_path: str | None = None
    mock_hidden_categories: list[str] = field(default_factory=list)
    mock_false_negative_rate: float = 0.0
    http_endpoint: str | None = None
    http_architect_model: str | None = None
    http_annotator_model: str | None = None
    http_auth_env: str = "LLM_API_KEY"
    http_temperature: float = 0.0

    @classmethod
    def load(cls, path: str | Path | None) -> "RunConfig":
        return cls.from_json(_read_config(path))

    @classmethod
    def from_json(cls, payload: dict) -> "RunConfig":
        """Type checks, the ``build`` block's included, then range checks."""
        _check_types(payload, _HINTS, "")
        _check_types(payload.get("build", {}), _BUILD_HINTS, "build.")
        return cls(**payload)

    def __post_init__(self) -> None:
        for name, floor in (("beam_width", 1), ("embed_dim", 1),
                            ("surrogate_order", 1), ("n_negatives", 1),
                            ("surrogate_alpha", 0), ("backoff_base", 0),
                            ("max_retries", 0)):
            if getattr(self, name) < floor:
                raise CliError("config", f"{name} must be >= {floor}", 2)
        if self.budget_max_calls is not None and self.budget_max_calls < 0:
            raise CliError("config", "budget_max_calls must be >= 0", 2)
        if not self.eval_ks:
            raise CliError("config", "eval_ks must list at least one cutoff", 2)
        if any(k < 1 for k in self.eval_ks):
            raise CliError("config", "eval_ks entries must be >= 1", 2)
        if not 0.0 <= self.mock_false_negative_rate <= 1.0:
            raise CliError("config", "mock_false_negative_rate must be in [0, 1]", 2)
        try:  # the build block, with the top level's seed and parallelism
            self.build_config = BuildConfig.from_json(
                {"seed": self.seed, "parallelism": self.parallelism, **self.build})
        except VocabularyError as exc:
            raise CliError("config", str(exc), 2) from exc


_HINTS = typing.get_type_hints(RunConfig)
# ``seed`` and ``parallelism`` are set at the top level only.
_BUILD_HINTS = {key: hint for key, hint in typing.get_type_hints(BuildConfig).items()
                if key not in ("seed", "parallelism")}


def _read_config(path: str | Path | None) -> dict:
    if path is None:
        return {}
    try:
        payload = read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("config", f"cannot read config {path}: {exc}", 2)
    if not isinstance(payload, dict):
        raise CliError("config", f"config {path} must hold a JSON object", 2)
    return payload


def _check_types(payload: dict, hints: dict, prefix: str) -> None:
    unknown = sorted(prefix + key for key in set(payload) - set(hints))
    if unknown:
        raise CliError("config", f"unknown config keys: {', '.join(unknown)}", 2)
    for key, value in sorted(payload.items()):
        hint = hints[key]
        if not _has_type(value, hint):
            name = (hint.__name__ if type(hint) is type
                    else str(hint).replace("typing.", ""))
            raise CliError("config", f"config key {prefix + key!r} must be {name}, "
                           f"got {value!r}", 2)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation (an int fits a float;
    a bool is not an int; a ``Literal`` lists the values that fit)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Literal:
        return value in args
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if hint is float:
        hint = (int, float)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, origin or hint)


@dataclass(frozen=True)
class Flag:
    key: str  # the config key it overrides; build.<key> is in the build block
    type: Callable[[str], object] = str
    stage: str | None = None  # the one subcommand that takes it, if not all


FLAGS: dict[str, Flag] = {
    "--run-dir": Flag("run_dir"),
    "--backend": Flag("backend"),
    "--seed": Flag("seed", int),
    "--parallelism": Flag("parallelism", int),
    "--beam": Flag("beam_width", int),
    "--branching-factor": Flag("build.branching_factor", int),
    "--depth": Flag("build.d_max", int),
    "--budget-max-calls": Flag("budget_max_calls", int),
    "--simulator": Flag("simulator", stage="critique-eval"),
}


def _choices(key: str) -> tuple | None:
    """The values a ``Literal`` config key allows, offered by its flag."""
    hint = _HINTS.get(key)
    return typing.get_args(hint) if typing.get_origin(hint) is Literal else None


def _with_flags(payload: dict, args: argparse.Namespace) -> dict:
    """``payload`` with each given flag's value at its config key."""
    for flag in FLAGS.values():
        value = getattr(args, flag.key, None)
        block, _, key = flag.key.rpartition(".")
        target = payload.setdefault(block, {}) if block else payload
        # A block that is not an object fails its type check.
        if value is not None and isinstance(target, dict):
            target[key] = value
    return payload


def make_gateway(cfg: RunConfig, paths: RunPaths) -> Gateway:
    if cfg.backend == "mock":
        from .mockllm import MockLLMBackend
        from .planted import load_taxonomy

        if not cfg.mock_world_path:
            raise CliError("config", "mock backend requires mock_world_path", 2)
        taxonomy = load_taxonomy(cfg.mock_world_path)
        backend = MockLLMBackend(
            taxonomy, seed=cfg.seed,
            false_negative_rate=cfg.mock_false_negative_rate,
            hidden_categories=frozenset(cfg.mock_hidden_categories))
        backends = {AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend}
    else:
        if not cfg.http_endpoint:
            raise CliError("config", "http backend requires http_endpoint", 2)
        backends = {
            AgentRole.ARCHITECT: HttpBackend(
                cfg.http_endpoint, cfg.http_architect_model or "architect",
                auth_env=cfg.http_auth_env, temperature=cfg.http_temperature),
            AgentRole.ANNOTATOR: HttpBackend(
                cfg.http_endpoint, cfg.http_annotator_model or "annotator",
                auth_env=cfg.http_auth_env, temperature=cfg.http_temperature),
        }
    return Gateway(backends, max_retries=cfg.max_retries,
                   backoff_base=cfg.backoff_base, max_calls=cfg.budget_max_calls,
                   transcript_path=paths.transcript, ledger_path=paths.ledger)


class StageRun:
    """What a stage body sees: config, run paths, ``--force``, the stage's
    input digest (set by :func:`run_stage`) and a gateway made on first use."""

    def __init__(self, cfg: RunConfig, paths: RunPaths, force: bool):
        self.cfg, self.paths, self.force = cfg, paths, force
        self.inputs_hash = ""
        self.made_gateway: Gateway | None = None

    @property
    def gateway(self) -> Gateway:
        if self.made_gateway is None:
            self.made_gateway = make_gateway(self.cfg, self.paths)
        return self.made_gateway


@dataclass(frozen=True)
class Stage:
    """One subcommand: the parts hashed into its digest, the files it
    writes, and its body, which returns the line printed on success."""

    name: str
    inputs: Callable[[StageRun], tuple]
    outputs: Callable[[StageRun], list[Path]]
    body: Callable[[StageRun], str]


STAGES: dict[str, Stage] = {}


def _stage(name: str, inputs, outputs):
    def register(body):
        STAGES[name] = Stage(name, inputs, outputs, body)
        return body
    return register


def run_stage(stage: Stage, run: StageRun) -> int:
    """digest -> skip if current -> unmark -> body -> close gateway -> mark.

    The one failure path of every stage: the gateway is closed, which saves
    the ledger, whether the body finishes or stops, and an exhausted call
    budget or transport ends in exit 3 with the stage left unmarked, so that
    a re-run continues it.
    """
    digest = inputs_hash(*stage.inputs(run))
    outputs = stage.outputs(run)
    if not run.force and stage_is_current(run.paths, stage.name, digest, outputs):
        print(f"{stage.name}: up to date, skipping")
        return 0
    run.inputs_hash = digest
    unmark_stage(run.paths, stage.name)  # a stopped re-run must not look current
    try:
        summary = stage.body(run)
    except (BuildInterrupted, BudgetExhaustedError,
            TransportExhaustedError) as exc:
        cause = exc.__cause__ if isinstance(exc, BuildInterrupted) else exc
        kind = "transport" if isinstance(cause, TransportExhaustedError) else "budget"
        raise CliError(f"{kind}-exhausted",
                       f"{stage.name} stopped (re-run the stage): {exc}", 3) from exc
    finally:
        if run.made_gateway is not None:
            run.made_gateway.close()
    mark_stage(run.paths, stage.name, digest, outputs)
    print(summary)
    return 0


def _corpus_source(run: StageRun) -> Path:
    if run.paths.corpus.exists():
        return run.paths.corpus
    if run.cfg.corpus_path is None:
        raise CliError("io", "no corpus available; run ingest or set corpus_path")
    return Path(run.cfg.corpus_path)


def _backend_parts(cfg: RunConfig) -> tuple:
    """What decides the backend's answers, so every LLM stage's digest."""
    return (cfg.backend, cfg.mock_world_path or "",
            sorted(cfg.mock_hidden_categories), cfg.mock_false_negative_rate,
            cfg.http_endpoint or "", cfg.http_architect_model or "",
            cfg.http_annotator_model or "", cfg.http_temperature)


def _require(path: Path, stage: str) -> Path:
    """``path``, or ``ERR:stage`` naming the stage that writes it."""
    if not path.exists():
        raise CliError("stage", f"{path.name} missing; run {stage} first")
    return path


def _load_tree(paths: RunPaths) -> VocabularyTree:
    return VocabularyTree.load(_require(paths.vocab, "build-vocab"))


def _decode_inputs(paths: RunPaths) -> tuple:
    return paths.splits, paths.semids, paths.token_map, paths.model


def _load_split_and_table(paths: RunPaths):
    from .assignment import SemidTable

    return (read_splits(_require(paths.splits, "ingest")),
            SemidTable.load(_require(paths.semids, "encode"),
                            _require(paths.token_map, "encode")))


def _decode_setup(paths: RunPaths):
    from . import decoding as dec

    split, table = _load_split_and_table(paths)
    model = dec.SurrogateModel.load(_require(paths.model, "fit"))
    return split, table, model, dec.build_trie(table)


def _run_eval(run: StageRun, *args, **kwargs) -> evalkit.MetricReport:
    """``evalkit.evaluate_run`` at the configured cutoffs, seed and beam
    width; cutoffs the beam cannot fill are a config error."""
    from . import evalkit

    cfg = run.cfg
    try:
        return evalkit.evaluate_run(*args, ks=tuple(cfg.eval_ks), seed=cfg.seed,
                                    beam_width=cfg.beam_width, **kwargs)
    except evalkit.EvalError as exc:
        raise CliError("config", str(exc), 2) from exc


def _ingest_inputs(run: StageRun) -> tuple:
    cfg = run.cfg
    if cfg.corpus_path is None:
        raise CliError("config", "ingest requires corpus_path", 2)
    return (Path(cfg.corpus_path),
            Path(cfg.interactions_path) if cfg.interactions_path else "",
            cfg.strict_ingest)


# -- stages -------------------------------------------------------------------


@_stage("ingest", _ingest_inputs,
        lambda run: [run.paths.corpus, run.paths.splits,
                     run.paths.reports / "ingest.json"])
def _ingest(run: StageRun) -> str:
    cfg, paths = run.cfg, run.paths
    report = IngestReport()
    corpus = load_corpus(cfg.corpus_path, strict=cfg.strict_ingest,
                         report=report)
    write_corpus(corpus, paths.corpus)
    summary = {"n_items": len(corpus), "malformed_lines": report.malformed_lines}
    if cfg.interactions_path:
        interactions = load_interactions(cfg.interactions_path, corpus,
                                         strict=cfg.strict_ingest, report=report)
        split = last_out_split(interactions, report=report)
        write_splits(split, paths.splits)
        summary.update({"n_interactions": len(interactions),
                        "n_users": len(split.train),
                        "excluded_users": report.excluded_users,
                        "unknown_items": report.unknown_items})
    else:
        write_jsonl(paths.splits, ())
    write_json(paths.reports / "ingest.json", summary, indent=2, sort_keys=True)
    return f"ingest: {summary}"


@_stage("build-vocab",
        lambda run: (_corpus_source(run), run.cfg.build_config.to_json(),
                     *_backend_parts(run.cfg), run.cfg.embed_dim),
        lambda run: [run.paths.vocab, run.paths.annotations,
                     run.paths.refinement_logs, run.paths.build_report])
def _build_vocab(run: StageRun) -> str:
    """Continues the checkpoint when it was written for this stage digest
    and ``--force`` is not given; otherwise builds from the root."""
    from .builder import build_vocabulary, load_checkpoint
    from .clustering import HashingProvider

    cfg, paths = run.cfg, run.paths
    corpus = load_corpus(_corpus_source(run))
    resume_state = None
    if not run.force and paths.checkpoint.exists():
        saved = load_checkpoint(paths.checkpoint)
        if saved.inputs_hash == run.inputs_hash:
            resume_state = saved
            print(f"resuming: {len(saved.completed)} nodes already done")
    state = build_vocabulary(corpus, cfg.build_config, run.gateway,
                             HashingProvider(dim=cfg.embed_dim),
                             checkpoint_path=paths.checkpoint,
                             resume_state=resume_state, inputs_hash=run.inputs_hash)
    state.tree.save(paths.vocab)
    write_jsonl(paths.annotations,
                ({"rule_id": rule_id, "matched": matched}
                 for rule_id, matched in sorted(state.annotations.items())),
                sort_keys=True)
    write_jsonl(paths.refinement_logs, (asdict(log) for log in state.logs),
                sort_keys=True)
    report = asdict(state.report)
    report["n_semid"] = f"{state.tree.max_depth()}+1"
    report["n_descriptors"] = len(state.tree.descriptor_nodes())
    write_json(paths.build_report, report, indent=2, sort_keys=True)
    return (f"build-vocab: {report['n_descriptors']} descriptors over "
            f"{state.tree.max_depth()} levels")


@_stage("assign",
        lambda run: (run.paths.vocab, run.paths.annotations, _corpus_source(run),
                     *_backend_parts(run.cfg), run.cfg.seed),
        lambda run: [run.paths.assignments])
def _assign(run: StageRun) -> str:
    from . import assignment as asg

    paths = run.paths
    corpus = load_corpus(_corpus_source(run))
    annotations = ({row["rule_id"]: row["matched"]
                    for row in read_jsonl(paths.annotations)}
                   if paths.annotations.exists() else {})
    records = asg.assign_paths(corpus, _load_tree(paths), run.gateway,
                               parallelism=run.cfg.parallelism,
                               annotations=annotations)
    records = asg.resolve_collisions(records)
    write_jsonl(paths.assignments, (rec.to_json() for rec in records))
    flagged = sum(1 for r in records if r.flag)
    return f"assign: {len(records)} items, {flagged} flagged"


@_stage("encode",
        lambda run: (run.paths.assignments, run.paths.vocab),
        lambda run: [run.paths.semids, run.paths.token_map,
                     run.paths.reports / "vocab_stats.json"])
def _encode(run: StageRun) -> str:
    from . import assignment as asg

    paths = run.paths
    tree = _load_tree(paths)
    records = [asg.AssignmentRecord.from_json(raw)
               for raw in read_jsonl(_require(paths.assignments, "assign"))]
    table = asg.export_semids(records, tree)
    table.save(paths.semids, paths.token_map)
    stats = asg.vocab_stats(records, tree)
    write_json(paths.reports / "vocab_stats.json", stats.to_json(), indent=2,
               sort_keys=True)
    return (f"encode: vocab {stats.vocab_size_label}, "
            f"utilization {stats.utilization:.3f}")


def _fit_inputs(run: StageRun) -> tuple:
    from .decoding import SurrogateModel

    return (run.paths.splits, run.paths.semids, run.cfg.surrogate_order,
            run.cfg.surrogate_alpha, SurrogateModel.FORMAT_VERSION)


@_stage("fit", _fit_inputs, lambda run: [run.paths.model])
def _fit(run: StageRun) -> str:
    from . import decoding as dec

    cfg, paths = run.cfg, run.paths
    split, table = _load_split_and_table(paths)
    model = dec.fit_surrogate(split, table, order=cfg.surrogate_order,
                              alpha=cfg.surrogate_alpha)
    model.save(paths.model)
    return f"fit: order-{model.order} model over {model.vocab_size} tokens"


@_stage("recommend",
        lambda run: (*_decode_inputs(run.paths), run.cfg.beam_width),
        lambda run: [run.paths.reports / "recommendations.jsonl"])
def _recommend(run: StageRun) -> str:
    from . import decoding as dec

    split, table, model, trie = _decode_setup(run.paths)
    known = {row.item_id for row in table.rows}

    def rows():
        for user_id in sorted(split.train):
            history = [i for i in split.train[user_id] if i in known]
            if history:
                context = dec.encode_history(table, history, model.order)
                ranked = dec.beam_decode(model, context, trie, run.cfg.beam_width)
                yield {"user_id": user_id,
                       "items": [{"item_id": i, "score": s} for i, s in ranked]}

    out_path = run.paths.reports / "recommendations.jsonl"
    write_jsonl(out_path, rows())
    return f"recommend: wrote {out_path}"


@_stage("evaluate",
        lambda run: (*_decode_inputs(run.paths), run.cfg.eval_mode, run.cfg.eval_ks,
                     run.cfg.seed, run.cfg.n_negatives, run.cfg.beam_width),
        lambda run: [run.paths.reports / f"eval_{run.cfg.eval_mode}.json"])
def _evaluate(run: StageRun) -> str:
    cfg = run.cfg
    split, table, model, trie = _decode_setup(run.paths)
    report = _run_eval(run, model, trie, split, table, mode=cfg.eval_mode,
                       n_negatives=cfg.n_negatives)
    write_json(run.paths.reports / f"eval_{cfg.eval_mode}.json",
               report.to_json(), indent=2, sort_keys=True)
    return (f"evaluate[{cfg.eval_mode}]: "
            + ", ".join(f"N@{k}={v:.4f}" for k, v in sorted(report.ndcg.items())))


@_stage("critique-eval",
        lambda run: (*_decode_inputs(run.paths), run.paths.vocab,
                     _corpus_source(run), run.cfg.simulator,
                     _backend_parts(run.cfg) if run.cfg.simulator == "llm" else (),
                     run.cfg.eval_ks, run.cfg.seed, run.cfg.beam_width),
        lambda run: [run.paths.reports / "critique_eval.json"])
def _critique_eval(run: StageRun) -> str:
    """A target without a level-1 descriptor (one a review set aside) has
    no section to critique toward: its user is decoded unconstrained in the
    constrained arm too, no simulator is asked, and ``n_unconstrained``
    counts such users."""
    from .decoding import simulate_user

    cfg, paths = run.cfg, run.paths
    split, table, model, trie = _decode_setup(paths)
    tree = _load_tree(paths)
    corpus = load_corpus(_corpus_source(run))
    gateway = run.gateway if cfg.simulator == "llm" else None
    path_of = {row.item_id: row.path_names for row in table.rows}
    targets = {user_id: target for user_id, target in sorted(split.test.items())
               if target in path_of}
    # The plain run goes first: it rejects bad cutoffs before any simulator call.
    vanilla = _run_eval(run, model, trie, split, table, mode="full")
    allowed_by_user = {
        user_id: simulate_user(target, corpus, table, tree,
                               mode=cfg.simulator, gateway=gateway)
        for user_id, target in targets.items() if path_of[target]}
    constrained = _run_eval(run, model, trie, split, table, mode="full",
                            allowed_level1_by_user=allowed_by_user)
    payload = {"simulator": cfg.simulator, "vanilla": vanilla.to_json(),
               "constrained": constrained.to_json(),
               "n_unconstrained": len(targets) - len(allowed_by_user)}
    write_json(paths.reports / "critique_eval.json", payload, indent=2,
               sort_keys=True)
    return ("critique-eval: "
            + ", ".join(f"N@{k} {vanilla.ndcg[k]:.4f}->{constrained.ndcg[k]:.4f}"
                        for k in sorted(vanilla.ndcg)))


@_stage("baseline-freeform",
        lambda run: (_corpus_source(run), *_backend_parts(run.cfg), run.cfg.seed),
        lambda run: [run.paths.root / "freeform_tags.jsonl",
                     run.paths.reports / "freeform.json"])
def _baseline_freeform(run: StageRun) -> str:
    from . import freeform

    paths = run.paths
    corpus = load_corpus(_corpus_source(run))
    table = freeform.generate_freeform(corpus, run.gateway,
                                       parallelism=run.cfg.parallelism)
    table.save(paths.root / "freeform_tags.jsonl")
    summary = {"n_items": len(table.tags_by_item),
               "n_distinct_tags": len(table.frequency),
               "utilization": freeform.tag_utilization(table),
               "failed_items": table.n_failed_items}
    write_json(paths.reports / "freeform.json", summary, indent=2,
               sort_keys=True)
    return (f"baseline-freeform: {summary['n_distinct_tags']} tags, "
            f"utilization {summary['utilization']:.3f}")


@_stage("report",
        lambda run: (run.paths.build_report, run.paths.refinement_logs,
                     run.paths.reports / "vocab_stats.json", run.paths.ledger,
                     run.paths.transcript),
        lambda run: [run.paths.reports / "summary.json",
                     run.paths.reports / "coverage_deltas.csv"])
def _report(run: StageRun) -> str:
    """Writes ``summary.json`` and ``coverage_deltas.csv`` (its header only
    when no node ran two refine cycles); prints the summary's path, then one
    line per (role, template) in the transcript: ``latency <role>/<template>
    calls=<n> p50_ms=<x> p95_ms=<y> max_ms=<z>``."""
    from . import evalkit

    paths = run.paths
    summary: dict = {}
    if paths.build_report.exists():
        summary["build"] = read_json(paths.build_report)
    logs = ([log_from_json(row) for row in read_jsonl(paths.refinement_logs)]
            if paths.refinement_logs.exists() else [])
    rows = evalkit.coverage_deltas(logs)
    evalkit.write_coverage_csv(rows, paths.reports / "coverage_deltas.csv")
    if logs:
        summary["coverage_cycles"] = len(rows)
    stats_path = paths.reports / "vocab_stats.json"
    if stats_path.exists():
        summary["vocab_stats"] = read_json(stats_path)
    if paths.ledger.exists():
        ledger = CallLedger()
        ledger.load_jsonl(paths.ledger)
        summary["ledger"] = ledger.snapshot()
    if paths.transcript.exists():
        summary["latency"] = transcript_latency(paths.transcript)
    write_json(paths.reports / "summary.json", summary, indent=2, sort_keys=True)
    return "\n".join(
        [f"report: wrote {paths.reports / 'summary.json'}"]
        + [f"latency {key} calls={row['calls']} p50_ms={row['p50_ms']} "
           f"p95_ms={row['p95_ms']} max_ms={row['max_ms']}"
           for key, row in summary.get("latency", {}).items()])


# ``resume`` is another name for build-vocab, which continues its checkpoint.
STAGES["resume"] = STAGES["build-vocab"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Descriptor-vocabulary mining and semantic-ID pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--force", action="store_true",
                       help="run even if up to date; build-vocab starts over")
        for option, flag in FLAGS.items():
            if flag.stage in (None, name):
                p.add_argument(option, dest=flag.key, type=flag.type,
                               choices=_choices(flag.key),
                               help=f"overrides config key {flag.key}")
    return parser


def _write_config(path: Path, cfg: RunConfig) -> None:
    """Snapshot the effective config, leaving the file as it is, bytes and
    mtime, when it already holds exactly that JSON."""
    text = json.dumps(asdict(cfg), indent=2, sort_keys=True)
    try:
        if path.read_bytes() == text.encode():
            return
    except FileNotFoundError:
        pass
    with atomic_open(path) as fh:
        fh.write(text)


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_json(_with_flags(_read_config(args.config), args))
        paths = RunPaths(Path(cfg.run_dir))
        paths.ensure()
        with RunLock(paths):
            if not paths.config.exists() or args.force or args.config is not None:
                _write_config(paths.config, cfg)
            return run_stage(STAGES[args.command], StageRun(cfg, paths, args.force))
    except CliError as exc:
        print(f"ERR:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except RunDirError as exc:
        print(f"ERR:locked: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable exit
        print(f"ERR:internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
