"""Output checks of the workloads.

Each check reads the program's output files (or the results a worker
returned) and compares them with what the planted world says they must be,
or with a property the method must have. None of them compares with a stored
copy of earlier output, and none calls the program code that produced the
output. Each returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Output files of the stages that the run manifest can skip, as laid out in
# the README's run-directory listing.
STAGE_OUTPUTS = {
    "ingest": ["corpus.jsonl", "interactions.jsonl", "splits.jsonl", "reports/ingest.json"],
    "build-vocab": ["vocab.json", "vocab_items.jsonl", "refinement_logs.jsonl",
                    "build_report.json"],
    "assign": ["assignments.jsonl"],
    "encode": ["semids.jsonl", "token_map.json", "fixed_slots.csv",
               "reports/vocab_stats.json"],
    "fit": ["model.bin"],
}

SCORE_TOLERANCE = 1e-9


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_jsonl(path: Path) -> list:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def file_digests(run_dir: Path, names: list[str]) -> dict[str, str | None]:
    """sha256 of each named file under ``run_dir`` (None when missing)."""
    out = {}
    for name in names:
        path = Path(run_dir) / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


def descriptor_nodes(vocab: dict) -> set[tuple[str, str | None]]:
    """(name, parent name) of every non-root node of vocab.json."""
    nodes = vocab["nodes"]
    return {(raw["name"], nodes[raw["parent"]]["name"]
             if raw["parent"] != vocab["root"] else None)
            for raw in nodes.values() if raw["parent"] is not None}


def planted_nodes(world: dict) -> set[tuple[str, str | None]]:
    """(name, parent name) of every node of the planted taxonomy."""
    out = set()
    for parent, kids in world["taxonomy"]["children"].items():
        for kid in kids:
            out.add((kid, None if parent == "ROOT" else parent))
    return out


def vocabulary_matches_taxonomy(vocab: dict, world: dict) -> list[str]:
    """The built descriptors are exactly the planted nodes, under the same parents."""
    built = descriptor_nodes(vocab)
    want = planted_nodes(world)
    if built == want:
        return []
    return [f"vocabulary differs from the planted taxonomy: "
            f"{len(built - want)} extra, {len(want - built)} missing "
            f"(e.g. {sorted(built ^ want)[:3]})"]


def transcript_matches_ledger(rows: list[dict], ledger_calls: int) -> list[str]:
    """One transcript line per call the ledger counts, each with a latency."""
    problems = []
    if len(rows) != ledger_calls:
        problems.append(f"transcript has {len(rows)} lines, ledger counts {ledger_calls} calls")
    bad = sum(1 for row in rows
              if not isinstance(row.get("latency_ms"), (int, float)) or row["latency_ms"] < 0)
    if bad:
        problems.append(f"{bad} transcript lines without a latency")
    return problems


def path_names(rule_ids: list[str], vocab: dict) -> tuple[str, ...]:
    nodes = vocab["nodes"]
    return tuple(nodes[r]["name"] if r in nodes else f"?{r}" for r in rule_ids)


def paths_match_world(assignments: list[dict], vocab: dict, true_path: dict) -> list[str]:
    """Every planted item is assigned once, and its path names are its planted path."""
    problems = []
    seen = [row["item_id"] for row in assignments]
    if sorted(seen) != sorted(true_path):
        problems.append(f"assignments cover {len(set(seen))} distinct of {len(seen)} rows, "
                        f"expected the {len(true_path)} corpus items once each")
    wrong = [row["item_id"] for row in assignments
             if path_names(row["path"], vocab) != tuple(true_path.get(row["item_id"], ()))]
    if wrong:
        problems.append(f"{len(wrong)} items assigned off their planted path "
                        f"(e.g. {wrong[0]})")
    return problems


def semids_consistent(assignments: list[dict], semid_rows: list[dict],
                      token_map: dict) -> list[str]:
    """(path, resolver) is a bijection onto items, and every semantic ID reads
    back through the token map as that item's path, resolver and EOS."""
    problems = []
    keys = {(tuple(r["path"]), r["resolver"]) for r in assignments}
    if len(keys) != len(assignments) or any(r["resolver"] is None for r in assignments):
        problems.append(f"(path, resolver) is not a bijection: {len(keys)} distinct "
                        f"keys for {len(assignments)} items")
    by_item = {r["item_id"]: r for r in assignments}
    if sorted(row["item_id"] for row in semid_rows) != sorted(by_item):
        problems.append("semantic IDs do not cover the assigned items exactly once")
    bad = []
    for row in semid_rows:
        rec = by_item.get(row["item_id"])
        names = [token_map.get(str(t)) for t in row["tokens"]]
        if rec is None or names != [*rec["path"], f"resolver:{rec['resolver']}",
                                    "special:<eos>"]:
            bad.append(row["item_id"])
    if bad:
        problems.append(f"{len(bad)} semantic IDs do not round-trip through the token "
                        f"map (e.g. {bad[0]})")
    return problems


def eval_report_ok(report: dict, n_users: int, label: str) -> list[str]:
    """The report counts every user and recall does not fall as K grows."""
    problems = []
    if report.get("n_users") != n_users:
        problems.append(f"{label}: counts {report.get('n_users')} users, expected {n_users}")
    recall = sorted((int(k), v) for k, v in report.get("recall", {}).items())
    if not recall or any(b[1] < a[1] for a, b in zip(recall, recall[1:])):
        problems.append(f"{label}: recall is not non-decreasing in K: {recall}")
    return problems


def critique_not_worse(plain_ndcg10: float, constrained_ndcg10: float) -> list[str]:
    """With the oracle's section, critique-constrained N@10 >= plain N@10."""
    if constrained_ndcg10 + 1e-12 >= plain_ndcg10:
        return []
    return [f"critique-constrained N@10 {constrained_ndcg10:.6f} below plain "
            f"{plain_ndcg10:.6f}"]


def outputs_identical(stage: str, cold: dict, warm: dict) -> list[str]:
    changed = sorted(name for name in cold if cold[name] != warm.get(name))
    if not changed:
        return []
    return [f"{stage} reported up to date but changed {', '.join(changed)}"]


def ranking_problems(items: list[str], scores: list[float], rescored: list[float],
                     known: set[str], label: str) -> list[str]:
    """Known items, non-increasing scores, and each score equal to the
    sequence score of that item's tokens (EOS included) from the context."""
    problems = []
    if not items:
        problems.append(f"{label}: empty result")
    unknown = [i for i in items if i not in known]
    if unknown:
        problems.append(f"{label}: unknown items {unknown[:3]}")
    if len(set(items)) != len(items):
        problems.append(f"{label}: an item is returned twice")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append(f"{label}: scores increase down the ranking")
    if len(rescored) != len(scores) or any(
            not math.isclose(s, r, rel_tol=SCORE_TOLERANCE, abs_tol=SCORE_TOLERANCE)
            for s, r in zip(scores, rescored)):
        problems.append(f"{label}: a score differs from the item's sequence score")
    return problems


def constrained_problems(items: list[str], allowed: list[int], expected: int,
                         level1_of: dict[str, int], label: str) -> list[str]:
    """The simulator names the target's own section, and every result carries it."""
    problems = []
    if allowed != [expected]:
        problems.append(f"{label}: simulator allowed {allowed}, the target's "
                        f"level-1 token is {expected}")
    outside = [i for i in items if level1_of.get(i) not in allowed]
    if outside:
        problems.append(f"{label}: {len(outside)} results outside the allowed "
                        f"level-1 tokens (e.g. {outside[0]})")
    return problems


def ndcg_at(ranked: list[str], target: str, k: int = 10) -> float:
    for rank, item_id in enumerate(ranked[:k], start=1):
        if item_id == target:
            return 1.0 / math.log2(rank + 1)
    return 0.0
