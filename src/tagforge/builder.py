"""Top-down hierarchical vocabulary construction.

Breadth-first over the tree: every node whose item set reaches the split
threshold is refined into children, items are routed into children under
the configured branching factor, and a checkpoint lands after every
completed node so an interrupted build resumes without re-refining
anything already committed. The gateway saves its ledger just before each
checkpoint, so after a hard kill the ledger counts every call the
checkpoint records.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import Corpus
from .gateway import (BudgetExhaustedError, BuildInterrupted, Gateway,
                      TransportExhaustedError)
from .refinement import RefinementError, refine
from .runs import read_json, write_json
from .vocab import (BuildConfig, DescriptorNode, RefinementLog, VocabularyTree,
                    log_from_json)


@dataclass
class BuildReport:
    nodes_refined: list[str] = field(default_factory=list)
    nodes_failed: list[str] = field(default_factory=list)
    degenerate_splits: list[str] = field(default_factory=list)
    residue: dict[str, int] = field(default_factory=dict)


@dataclass
class BuildState:
    """``annotations`` maps a refined node to the annotators' matched
    children per item, kept only where that round saw the committed
    children (see :func:`_commit`)."""

    tree: VocabularyTree
    completed: set[str]
    logs: list[RefinementLog]
    report: BuildReport
    annotations: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    inputs_hash: str | None = None  # digest of the build inputs it is for


def branch_items(assignments: dict[str, list[str]], branching_factor: int,
                 seed: int) -> dict[str, set[str]]:
    """Route each item into children per the branching factor.

    0 keeps every matched child; b >= 1 keeps a seeded-random sample of at
    most b of them. The choice depends only on (seed, item_id), so it is
    stable under re-runs and independent of iteration order.
    """
    routed: dict[str, set[str]] = {}
    for item_id in sorted(assignments):
        children = sorted(assignments[item_id])
        if not children:
            continue
        if branching_factor == 0 or len(children) <= branching_factor:
            chosen = children
        else:
            rng = random.Random(f"{seed}:{item_id}")
            chosen = rng.sample(children, branching_factor)
        for child in chosen:
            routed.setdefault(child, set()).add(item_id)
    return routed


def save_checkpoint(path: str | Path, state: BuildState) -> None:
    payload = {
        "tree": state.tree.to_json(),
        "items": {rid: sorted(node.items)
                  for rid, node in state.tree.nodes.items()},
        "completed": sorted(state.completed),
        "logs": [asdict(log) for log in state.logs],
        "report": asdict(state.report),
        "annotations": state.annotations,
        "inputs_hash": state.inputs_hash,
    }
    write_json(path, payload)


def load_checkpoint(path: str | Path) -> BuildState:
    payload = read_json(path)
    tree = VocabularyTree.from_json(payload["tree"], payload["items"])
    return BuildState(tree=tree, completed=set(payload["completed"]),
                      logs=[log_from_json(row) for row in payload["logs"]],
                      report=BuildReport(**payload["report"]),
                      annotations=payload.get("annotations", {}),
                      inputs_hash=payload.get("inputs_hash"))


def build_vocabulary(corpus: Corpus, config: BuildConfig, gateway: Gateway,
                     provider, checkpoint_path: str | Path | None = None,
                     resume_state: BuildState | None = None,
                     inputs_hash: str | None = None) -> BuildState:
    """Run the full hierarchical build; returns the final state.

    With a ``checkpoint_path``, the gateway's ledger and then the state are
    persisted after every committed node; on :class:`BudgetExhaustedError`
    or :class:`TransportExhaustedError` both are saved and
    :class:`BuildInterrupted` is raised.
    Pass a loaded checkpoint as ``resume_state`` to continue a prior run:
    completed nodes are skipped without issuing any calls. A fresh state
    records ``inputs_hash`` in its checkpoints.
    """
    if resume_state is not None:
        state = resume_state
    else:
        tree = VocabularyTree(root_items=set(corpus.item_ids),
                              config=config.to_json())
        state = BuildState(tree=tree, completed=set(), logs=[],
                           report=BuildReport(), inputs_hash=inputs_hash)
    tree = state.tree

    def checkpoint() -> None:
        # The ledger first: after a kill between the two writes it counts
        # more calls than the checkpoint holds, never fewer.
        if checkpoint_path is not None:
            gateway.save_ledger()
            save_checkpoint(checkpoint_path, state)

    for depth in range(1, config.d_max + 1):
        parents = [n for n in tree.level_nodes(depth - 1)
                   if len(n.items) >= config.tau_split]
        if not parents:
            break
        for parent in parents:
            if parent.rule_id in state.completed:
                continue
            try:
                result = refine([corpus.get(i) for i in sorted(parent.items)],
                                parent, tree, config, gateway, provider)
            except (BudgetExhaustedError, TransportExhaustedError) as exc:
                checkpoint()
                raise BuildInterrupted(str(exc)) from exc
            except RefinementError as exc:
                state.report.nodes_failed.append(parent.rule_id)
                state.report.residue[parent.rule_id] = len(parent.items)
                state.logs.append(RefinementLog(
                    rule_id=parent.rule_id, depth=parent.depth,
                    n_items=len(parent.items), notes=[f"failed: {exc}"]))
                state.completed.add(parent.rule_id)
                checkpoint()
                continue
            _commit(tree, parent, result, config, state)
            checkpoint()
    return state


def _commit(tree: VocabularyTree, parent: DescriptorNode, result,
            config: BuildConfig, state: BuildState) -> None:
    """Single-writer commit of one node's refinement result."""
    outcome = result.last_outcome
    routed = branch_items(outcome.assigned if outcome else {},
                          config.branching_factor, config.seed)
    covered: set[str] = set()
    for node in result.children:
        node.items = routed.get(node.rule_id, set())
        tree.add_child(parent.rule_id, node)
        covered |= node.items
    # The last round's answers stand for the committed children only if
    # no review changed them after it.
    if outcome and outcome.rules == {n.rule_id: n.description
                                     for n in result.children}:
        state.annotations[parent.rule_id] = outcome.assigned
    if len(result.children) == 1:
        state.report.degenerate_splits.append(parent.rule_id)
    if result.parent_status is not None:
        parent.status = result.parent_status
    # Items the final cycle could not place stay attached to the parent.
    residue = len(parent.items) - len(covered)
    if residue:
        state.report.residue[parent.rule_id] = residue
    state.logs.append(result.log)
    state.report.nodes_refined.append(parent.rule_id)
    state.completed.add(parent.rule_id)
