"""The three workloads: set-up, one round of timed operations, output checks.

A round runs CLI stages as ``python -m tagforge`` processes and in-process
operations as ``worker.py`` processes. The traced run replays the same round
in this process: stages through ``tagforge.cli.dispatch`` and operations by
direct call, each inside a span.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import worlds
from checks import read_json, read_jsonl

BENCH = Path(__file__).resolve().parent
DEMO_STAGES = ("ingest", "build-vocab", "assign", "encode", "fit", "evaluate",
               "critique-eval", "baseline-freeform", "report")


@dataclass
class StageRun:
    ok: bool
    stdout: str
    seconds: float


@dataclass
class Tally:
    """Operations of one round and what they measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    request_ms: list[float] = field(default_factory=list)
    skip_stage_s: list[float] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    llm_calls: int = 0
    llm_tokens: int = 0

    def op(self, ran: bool, problems: list[str] = ()) -> None:
        """One operation: failed if it did not run or any check of it failed."""
        self.attempted += 1
        problems = list(problems)
        if not ran or problems:
            self.failed += 1
        self.problems.extend(problems)

    def ops_not_run(self, count: int) -> None:
        self.attempted += count
        self.failed += count

    def read_ledger(self, path: Path) -> None:
        rows = read_jsonl(path) if path.exists() else []
        self.llm_calls = sum(row["calls"] for row in rows)
        self.llm_tokens = sum(row["token_estimate"] for row in rows)


class Runner:
    """Runs stages and operations as child processes, or in this process
    (optionally inside a tracer's spans)."""

    def __init__(self, work: Path, deadline: float, in_process: bool = False, tracer=None):
        self.work = work
        self.deadline = deadline
        self.in_process = in_process
        self.tracer = tracer
        self._ops = 0

    def _timeout(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def _child(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -1, out, err + "\ntimed out"
        return proc.returncode, out, err

    def stage(self, config: Path, stage: str, *extra: str, label: str) -> StageRun:
        argv = [stage, "--config", str(config), *extra]
        if self.in_process:
            from tagforge import cli

            out, err = io.StringIO(), io.StringIO()
            started = perf_counter()
            with redirect_stdout(out), redirect_stderr(err), self._span(f"stage:{label}"):
                code = cli.dispatch(argv)
            seconds = perf_counter() - started
            out, err = out.getvalue(), err.getvalue()
        else:
            started = perf_counter()
            code, out, err = self._child([sys.executable, "-m", "tagforge", *argv])
            seconds = perf_counter() - started
        if code != 0:
            print(f"{label}: exit {code}: {err.strip()[-500:]}", file=sys.stderr)
        return StageRun(ok=code == 0, stdout=out, seconds=seconds)

    def operation(self, name: str, **kwargs) -> dict | None:
        if self.in_process:
            import worker

            try:
                with self._span(f"op:{name}"):
                    return worker.OPERATIONS[name](**kwargs)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                return None
        self._ops += 1
        args_path = self.work / f"op{self._ops}.args.json"
        result_path = self.work / f"op{self._ops}.result.json"
        args_path.write_text(json.dumps(kwargs), encoding="utf-8")
        code, _, err = self._child([sys.executable, str(BENCH / "worker.py"), name,
                                    str(args_path), str(result_path)])
        if code != 0 or not result_path.exists():
            print(f"{name}: exit {code}: {err.strip()[-500:]}", file=sys.stderr)
            return None
        return read_json(result_path)

    def _span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)


class Workload:
    name = ""
    sizes: worlds.Sizes

    def __init__(self, sizes: worlds.Sizes, seed: int, parallelism: int):
        self.sizes = sizes
        self.seed = seed
        self.parallelism = parallelism

    def setup(self, data: Path) -> dict:
        raise NotImplementedError

    def load_truth(self, data: Path) -> None:
        """Read the planted truth the checks compare against (not timed)."""
        self.world = read_json(data / "world.json")
        self.true_path = self.world["true_path"]

    def round(self, runner: Runner, data: Path, round_dir: Path, tally: Tally) -> Path:
        """Run one round; return its run directory."""
        raise NotImplementedError

    def _config(self, data: Path, round_dir: Path, with_interactions: bool = True) -> Path:
        round_dir.mkdir(parents=True, exist_ok=True)
        path = round_dir / "config.json"
        path.write_text(json.dumps(worlds.run_config(
            data, round_dir / "run", self.seed, self.parallelism, with_interactions)),
            encoding="utf-8")
        return path

    def _stage_checks(self, stage: str, run: Path) -> list[str]:
        """Checks of a stage that exited 0; unreadable output is a problem too."""
        try:
            return self._read_and_check(stage, run)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"{stage}: output unreadable: {type(exc).__name__}: {exc}"]

    def _read_and_check(self, stage: str, run: Path) -> list[str]:
        if stage == "ingest":
            report = read_json(run / "reports" / "ingest.json")
            if (report.get("n_items"), report.get("n_users")) != (self.sizes.items,
                                                                  self.sizes.users):
                return [f"ingest reports {report.get('n_items')} items / "
                        f"{report.get('n_users')} users"]
            return []
        if stage == "build-vocab":
            return checks.vocabulary_matches_taxonomy(read_json(run / "vocab.json"), self.world)
        if stage == "assign":
            return checks.paths_match_world(read_jsonl(run / "assignments.jsonl"),
                                            read_json(run / "vocab.json"), self.true_path)
        if stage == "encode":
            return checks.semids_consistent(read_jsonl(run / "assignments.jsonl"),
                                            read_jsonl(run / "semids.jsonl"),
                                            read_json(run / "token_map.json"))
        if stage == "evaluate":
            return checks.eval_report_ok(read_json(run / "reports" / "eval_full.json"),
                                         self.sizes.users, "evaluate")
        if stage == "critique-eval":
            report = read_json(run / "reports" / "critique_eval.json")
            return (checks.eval_report_ok(report["vanilla"], self.sizes.users, "plain")
                    + checks.eval_report_ok(report["constrained"], self.sizes.users,
                                            "constrained")
                    + checks.critique_not_worse(report["vanilla"]["ndcg"]["10"],
                                                report["constrained"]["ndcg"]["10"]))
        return []


class DemoPipeline(Workload):
    """The README quickstart, cold and then warm, then plain requests served
    from the finished run directory: every test user in turn, in as many
    passes as ``sizes.requests`` asks for."""

    name = "demo-pipeline"

    def setup(self, data: Path) -> dict:
        return worlds.make_demo(data, self.sizes, self.seed)

    def round(self, runner: Runner, data: Path, round_dir: Path, tally: Tally) -> Path:
        config = self._config(data, round_dir)
        run = round_dir / "run"
        cold: dict[str, dict] = {}
        for pass_name in ("cold", "warm"):
            for stage in DEMO_STAGES:
                extra = ("--simulator", "oracle") if stage == "critique-eval" else ()
                label = f"{pass_name}.{stage}"
                result = runner.stage(config, stage, *extra, label=label)
                tally.wall_s += result.seconds
                tally.stage_s[label] = result.seconds
                problems = self._stage_checks(stage, run) if result.ok else []
                if result.ok and stage in checks.STAGE_OUTPUTS:
                    digests = checks.file_digests(run, checks.STAGE_OUTPUTS[stage])
                    if pass_name == "cold":
                        cold[stage] = digests
                    elif "up to date" not in result.stdout:
                        problems.append(f"warm {stage} did not find itself up to date")
                    else:
                        tally.skip_stage_s.append(result.seconds)
                        problems += checks.outputs_identical(stage, cold.get(stage, {}),
                                                             digests)
                tally.op(result.ok, problems)
        served = runner.operation("serve", run_dir=str(run), beam_width=worlds.BEAM_WIDTH,
                                  passes=self.sizes.requests // self.sizes.users)
        if served is None:
            tally.ops_not_run(self.sizes.requests)
        else:
            tally.wall_s += served["timed_s"]
            tally.stage_s["serve"] = served["timed_s"]
            known = set(self.true_path)
            for req in served["requests"]:
                plain = req["plain"]
                tally.request_ms.append(req["ms"])
                tally.op(True, checks.ranking_problems(plain["items"], plain["scores"],
                                                       plain["rescored"], known,
                                                       req["user_id"]))
        tally.read_ledger(run / "ledger.jsonl")
        return run


class SportsAssign(Workload):
    """Sports-scale ingest, assign and encode against the planted vocabulary.
    A request is one annotator call of the batch ``assign`` stage, with the
    latency the gateway itself logs in ``transcript.jsonl``."""

    name = "sports-assign"

    def setup(self, data: Path) -> dict:
        return worlds.make_sports_assign(data, self.sizes, self.seed, self.parallelism)

    def round(self, runner: Runner, data: Path, round_dir: Path, tally: Tally) -> Path:
        config = self._config(data, round_dir)
        run = round_dir / "run"
        run.mkdir(parents=True, exist_ok=True)
        for name in ("vocab.json", "vocab_items.jsonl"):
            shutil.copyfile(data / name, run / name)
        for stage in ("ingest", "assign", "encode"):
            result = runner.stage(config, stage, label=stage)
            tally.wall_s += result.seconds
            tally.stage_s[stage] = result.seconds
            tally.op(result.ok, self._stage_checks(stage, run) if result.ok else [])
        tally.read_ledger(run / "ledger.jsonl")
        if (run / "transcript.jsonl").exists():
            tally.request_ms = [row["latency_ms"] for row in read_jsonl(run / "transcript.jsonl")]
        return run

    def _read_and_check(self, stage: str, run: Path) -> list[str]:
        problems = super()._read_and_check(stage, run)
        if stage == "assign":
            calls = sum(row["calls"] for row in read_jsonl(run / "ledger.jsonl"))
            problems += checks.transcript_matches_ledger(read_jsonl(run / "transcript.jsonl"),
                                                         calls)
        return problems


class SportsDecode(Workload):
    """Sports-scale surrogate fit and trie build, then a plain and a
    critique-constrained request for each sampled test user."""

    name = "sports-decode"

    def setup(self, data: Path) -> dict:
        return worlds.make_sports_decode(data, self.sizes, self.seed, self.parallelism)

    def load_truth(self, data: Path) -> None:
        super().load_truth(data)
        vocab = read_json(data / "vocab.json")
        token_map = read_json(data / "token_map.json")
        level1 = {vocab["nodes"][rule]["name"]: int(tok) for tok, rule in token_map.items()
                  if rule in vocab["nodes"] and vocab["nodes"][rule]["depth"] == 1}
        self.expected_level1 = {item: level1[path[0]] for item, path in self.true_path.items()}
        self.level1_of = {row["item_id"]: row["tokens"][0]
                          for row in read_jsonl(data / "semids.jsonl")}

    def round(self, runner: Runner, data: Path, round_dir: Path, tally: Tally) -> Path:
        config = self._config(data, round_dir, with_interactions=False)
        run = round_dir / "run"
        result = runner.operation("decode", config=str(config), data=str(data),
                                  users=str(data / "requests.json"))
        if result is None:
            tally.ops_not_run(1 + self.sizes.requests)
            return run
        tally.wall_s += result["timed_s"]
        tally.stage_s["decode"] = result["timed_s"]
        tally.stage_s["fit_and_trie"] = result["build_s"]
        known = set(self.true_path)
        plain_ndcg, constrained_ndcg = [], []
        for req in result["requests"]:
            plain, constrained = req["plain"], req["constrained"]
            user = req["user_id"]
            tally.request_ms.append(req["ms"])
            plain_ndcg.append(checks.ndcg_at(plain["items"], req["target"]))
            constrained_ndcg.append(checks.ndcg_at(constrained["items"], req["target"]))
            tally.op(True, checks.ranking_problems(plain["items"], plain["scores"],
                                                   plain["rescored"], known, user)
                     + checks.ranking_problems(constrained["items"], constrained["scores"],
                                               constrained["rescored"], known,
                                               f"{user} constrained")
                     + checks.constrained_problems(constrained["items"], req["allowed"],
                                                   self.expected_level1[req["target"]],
                                                   self.level1_of, user))
        # The model build is one operation; the sample-wide critique property
        # is checked against it.
        tally.op(True, checks.critique_not_worse(statistics.fmean(plain_ndcg),
                                                 statistics.fmean(constrained_ndcg)))
        tally.read_ledger(run / "ledger.jsonl")
        return run


WORKLOADS = {cls.name: cls for cls in (DemoPipeline, SportsAssign, SportsDecode)}
SIZES = {"demo-pipeline": worlds.DEMO, "sports-assign": worlds.SPORTS_ASSIGN,
         "sports-decode": worlds.SPORTS_DECODE}
TINY_SIZES = {"demo-pipeline": worlds.TINY_DEMO, "sports-assign": worlds.TINY_SPORTS,
              "sports-decode": worlds.TINY_SPORTS}

