"""Per-node vocabulary refinement: init, parallel annotation, error feedback,
review, and mutation.

A refine run is transactional with respect to the tree: it builds a local
set of child descriptors and only the builder commits them, so an
interrupted run leaves no partial children behind. All vocabulary mutation
happens in the single-threaded review step between annotation rounds; only
the per-item annotation calls fan out.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import prompts, wire
from .clustering import distill, embed_batch, k_medoids
from .corpus import Item
from .gateway import (AgentRole, BackendRefusalError, Gateway,
                      TransportExhaustedError, fan_out)
from .protocol import (APPROVED, CREATE_NEW_CATEGORY, EXPAND_EXISTING_CATEGORY,
                       REJECTED, ChangeProposal,
                       ProtocolError, ReviewDecision, parse_categories,
                       parse_change_proposal, parse_matched_rules,
                       parse_reviews)
from .vocab import (STATUS_OUTLIERS_RECORDED, BuildConfig, CycleRecord,
                    DescriptorNode, RefinementLog, VocabularyTree)


class RefinementError(RuntimeError):
    """A node's refinement failed hard (e.g. unusable init vocabulary)."""


@dataclass(frozen=True)
class ErrorReport:
    item_id: str
    report_text: str


@dataclass
class AssignOutcome:
    """One annotation round; ``rules`` maps each rule id to the description
    the annotators saw, so a caller can tell whether it is still current."""

    assigned: dict[str, list[str]]
    unassigned: set[str]
    reports: list[ErrorReport]
    n_items: int
    rules: dict[str, str]

    @property
    def coverage(self) -> float:
        return len(self.assigned) / self.n_items if self.n_items else 1.0


@dataclass
class RefineResult:
    children: list[DescriptorNode]
    log: RefinementLog
    last_outcome: AssignOutcome | None
    parent_status: str | None = None


def _make_proposal_id(parent_id: str, cycle: int, index: int) -> str:
    digest = hashlib.sha1(f"{parent_id}/{cycle}/{index}".encode()).hexdigest()
    return f"prop_{digest[:8]}"


def _name_from_description(description: str) -> str:
    return description.split(":", 1)[0].strip() or description.strip()


def init_vocabulary(items: list[Item], parent: DescriptorNode,
                    tree: VocabularyTree, config: BuildConfig,
                    gateway: Gateway, provider) -> tuple[list[DescriptorNode], list[str]]:
    """Initial child descriptors from a distilled item sample.

    The root is served by the architect's init prompt; deeper nodes use the
    annotator's sub-category proposal prompt. An unparseable or refused
    answer fails the node (:class:`RefinementError`).
    """
    sample = distill(items, config.n_target_rules, provider, seed=config.seed,
                     text_of=Item.prompt_text)
    sample_text = wire.items_text((it.item_id, it.prompt_text()) for it in sample)
    if parent.depth == 0:
        prompt = prompts.render_prompt(prompts.ARCHITECT_INIT, {
            "parent_rule_description": parent.description,
            "n_target_rules": str(config.n_target_rules),
            "context_prompt": "",
            "sample_text": sample_text,
        })
        role, template_id = AgentRole.ARCHITECT, prompts.ARCHITECT_INIT
    else:
        context = (f'Parent category: "{parent.description}"\n\n'
                   f"Product examples:\n{sample_text}\n")
        prompt = prompts.render_prompt(prompts.ANNOTATOR_PROPOSE, {
            "context_prompt": context,
            "n_target_rules": str(config.n_target_rules),
            "parent_rule_description": parent.description,
        })
        role, template_id = AgentRole.ANNOTATOR, prompts.ANNOTATOR_PROPOSE
    try:
        categories = gateway.complete_parsed(role, prompt, template_id,
                                             parse_categories)
    except (ProtocolError, BackendRefusalError) as exc:
        raise RefinementError(f"{parent.rule_id}: init vocabulary failed: {exc}") from exc

    notes: list[str] = []
    nodes: list[DescriptorNode] = []
    local: dict[str, DescriptorNode] = {}
    seen_names: set[str] = set()
    for cat in categories:
        key = cat.name.casefold()
        if key in seen_names:
            notes.append(f"merged duplicate category name {cat.name!r}")
            continue
        seen_names.add(key)
        rule_id = tree.fresh_rule_id(parent.rule_id, cat.name, local)
        node = DescriptorNode(rule_id=rule_id, name=cat.name,
                              description=cat.description,
                              parent=parent.rule_id, depth=parent.depth + 1)
        local[rule_id] = node
        nodes.append(node)
    return nodes, notes


def parallel_assign(items: list[Item], rules: list[DescriptorNode],
                    gateway: Gateway, parallelism: int = 8) -> AssignOutcome:
    """One annotation call per item against the full candidate rule list.

    Per-item transport failures, backend refusals and unparseable answers
    become unassigned-with-report and never abort the batch; budget
    exhaustion does abort (the caller checkpoints).
    """
    if not rules:
        raise RefinementError("parallel_assign requires a non-empty vocabulary")
    head, tail = prompts.prompt_frame(prompts.ASSIGN_ITEM, {
        "rules_text": wire.rules_text(rules),
        "instruction": prompts.ASSIGN_MULTI_INSTRUCTION,
    }, "item_text")
    known = {r.rule_id for r in rules}

    def annotate(item: Item) -> tuple[list[str], str | None]:
        prompt = head + wire.item_line(item.item_id, item.prompt_text()) + tail
        matched, reason = gateway.complete_parsed(
            AgentRole.ANNOTATOR, prompt, prompts.ASSIGN_ITEM, parse_matched_rules)
        matched = sorted(set(m for m in matched if m in known))
        if matched:
            return matched, None
        return [], reason or "annotator returned no match"

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        results = fan_out(pool, annotate, items, width=parallelism)
    assigned: dict[str, list[str]] = {}
    unassigned: set[str] = set()
    reports: list[ErrorReport] = []
    for item, result in sorted(zip(items, results), key=lambda pair: pair[0].item_id):
        if isinstance(result, TransportExhaustedError):
            result = ([], f"transport failure: {result}")
        elif isinstance(result, BackendRefusalError):
            result = ([], f"backend refusal: {result}")
        elif isinstance(result, ProtocolError):
            result = ([], f"unparseable annotation: {result}")
        matched, reason = result
        if matched:
            assigned[item.item_id] = matched
        else:
            unassigned.add(item.item_id)
            reports.append(ErrorReport(item_id=item.item_id, report_text=reason))
    return AssignOutcome(assigned=assigned, unassigned=unassigned,
                         reports=reports, n_items=len(items),
                         rules={r.rule_id: r.description for r in rules})


def propose_changes(reports: list[ErrorReport], rules: list[DescriptorNode],
                    items_by_id: dict[str, Item], parent: DescriptorNode,
                    cycle: int, config: BuildConfig, gateway: Gateway,
                    provider) -> tuple[list[ChangeProposal], dict[str, list[str]], list[str]]:
    """Cluster error reports into tickets and ask for one proposal each.

    Returns (proposals, items-per-proposal, notes). Identical report texts
    are deduplicated before clustering, so homogeneous failures collapse
    into a single ticket. A ticket whose answer is unparseable or refused
    gets no proposal, and a note says why.
    """
    by_text: dict[str, list[str]] = {}
    for rep in reports:
        by_text.setdefault(rep.report_text, []).append(rep.item_id)
    unique_texts = sorted(by_text)
    k = min(config.proposal_batch, len(unique_texts))
    if k < len(unique_texts):
        vectors = embed_batch(provider, unique_texts)
        labels = k_medoids(vectors, k, seed=config.seed).assignment
    else:
        labels = list(range(len(unique_texts)))
    clusters: dict[int, list[str]] = {}
    for text, label in zip(unique_texts, labels):
        clusters.setdefault(int(label), []).append(text)

    rules_text = wire.rules_text(rules)
    proposals: list[ChangeProposal] = []
    proposal_items: dict[str, list[str]] = {}
    notes: list[str] = []
    for index, label in enumerate(sorted(clusters)):
        texts = clusters[label]
        member_items = sorted(iid for t in texts for iid in by_text[t])
        examples = member_items[:config.ticket_examples_cap]
        report_of = {iid: t for t in texts for iid in by_text[t]}
        ticket_lines = "\n".join(
            wire.ticket_line(iid, items_by_id[iid].prompt_text(), report_of[iid])
            for iid in examples)
        prompt = prompts.render_prompt(prompts.ANNOTATOR_ERROR_FEEDBACK, {
            "len(ticket_cluster)": str(len(member_items)),
            "existing_rules_text": rules_text,
            "ticket_examples_text": ticket_lines,
        })
        pid = _make_proposal_id(parent.rule_id, cycle, index)
        try:
            proposal = gateway.complete_parsed(
                AgentRole.ANNOTATOR, prompt, prompts.ANNOTATOR_ERROR_FEEDBACK,
                lambda raw, pid=pid: parse_change_proposal(raw, proposal_id=pid))
        except (ProtocolError, BackendRefusalError) as exc:
            notes.append(f"ticket cluster {index}: proposal skipped ({exc})")
            continue
        proposals.append(proposal)
        proposal_items[pid] = member_items
    return proposals, proposal_items, notes


def review_and_apply(proposals: list[ChangeProposal], parent: DescriptorNode,
                     children: list[DescriptorNode], tree: VocabularyTree,
                     proposal_items: dict[str, list[str]],
                     gateway: Gateway) -> tuple[list[ReviewDecision], list[str], set[str], bool]:
    """One architect review over all proposals, then apply the approvals.

    Returns (effective decisions, notes, outlier item ids, parent flagged).
    A review that cannot be parsed, or is refused, rejects every proposal
    this cycle.
    """
    proposals_text = "\n".join(
        wire.proposal_line(p.proposal_id, p.change_type, p.problem_summary,
                           json.dumps(p.to_json(), ensure_ascii=False))
        for p in proposals)
    prompt = prompts.render_prompt(prompts.ARCHITECT_REVIEW,
                                   {"proposals_text": proposals_text})
    notes: list[str] = []
    try:
        reviews = gateway.complete_parsed(AgentRole.ARCHITECT, prompt,
                                          prompts.ARCHITECT_REVIEW, parse_reviews)
    except ProtocolError as exc:
        notes.append(f"review unparseable, rejecting all proposals: {exc}")
        reviews = []
    except BackendRefusalError as exc:
        notes.append(f"review refused, rejecting all proposals: {exc}")
        reviews = []
    decision_by_id = {r.proposal_id: r for r in reviews}
    unknown = set(decision_by_id) - {p.proposal_id for p in proposals}
    for pid in sorted(unknown):
        notes.append(f"review names unknown proposal {pid}, ignored")

    local = {c.rule_id: c for c in children}
    child_names = {c.name.casefold() for c in children}
    outliers: set[str] = set()
    parent_flagged = False
    effective: list[ReviewDecision] = []
    for proposal in proposals:
        review = decision_by_id.get(proposal.proposal_id)
        if review is None:
            effective.append(ReviewDecision(
                proposal_id=proposal.proposal_id, decision=REJECTED,
                reasoning="not reviewed; rejected conservatively"))
            continue
        if review.decision != APPROVED:
            effective.append(review)
            continue
        change = proposal.change
        if proposal.change_type == CREATE_NEW_CATEGORY:
            name = _name_from_description(change["new_rule_description"])
            if name.casefold() in child_names:
                notes.append(f"{proposal.proposal_id}: duplicate name "
                             f"{name!r}, merged with existing rule")
                effective.append(review)
                continue
            rule_id = tree.fresh_rule_id(parent.rule_id, name, local)
            node = DescriptorNode(rule_id=rule_id, name=name,
                                  description=change["new_rule_description"],
                                  parent=parent.rule_id, depth=parent.depth + 1)
            local[rule_id] = node
            children.append(node)
            child_names.add(name.casefold())
            effective.append(review)
        elif proposal.change_type == EXPAND_EXISTING_CATEGORY:
            target = local.get(change["rule_id_to_refine"])
            if target is None:
                effective.append(ReviewDecision(
                    proposal_id=proposal.proposal_id, decision=REJECTED,
                    reasoning=f"unknown rule_id_to_refine "
                              f"{change['rule_id_to_refine']!r}"))
                notes.append(f"{proposal.proposal_id}: auto-rejected, unknown "
                             f"rule {change['rule_id_to_refine']!r}")
                continue
            child_names.discard(target.name.casefold())
            target.description = change["refined_description"]
            target.name = _name_from_description(change["refined_description"])
            child_names.add(target.name.casefold())
            effective.append(review)
        else:  # IGNORE_AS_OUTLIERS
            outliers.update(proposal_items.get(proposal.proposal_id, []))
            parent_flagged = True
            effective.append(review)
    return effective, notes, outliers, parent_flagged


def refine(items: list[Item], parent: DescriptorNode, tree: VocabularyTree,
           config: BuildConfig, gateway: Gateway, provider) -> RefineResult:
    """Full refinement subroutine for one node.

    Init, then up to ``c_max`` cycles of assign / break-check / propose /
    review. The vocabulary never shrinks; coverage is recomputed from
    scratch each cycle.
    """
    children, init_notes = init_vocabulary(items, parent, tree, config,
                                           gateway, provider)
    log = RefinementLog(rule_id=parent.rule_id, depth=parent.depth,
                        n_items=len(items), notes=init_notes)
    if not children:
        raise RefinementError(f"{parent.rule_id}: empty initial vocabulary")
    items_by_id = {it.item_id: it for it in items}
    tau_anom = config.anomaly_threshold(len(items))
    outcome: AssignOutcome | None = None
    outliers: set[str] = set()
    parent_status: str | None = None
    for cycle in range(1, config.c_max + 1):
        outcome = parallel_assign(items, children, gateway,
                                  parallelism=config.parallelism)
        record = CycleRecord(cycle=cycle, coverage=outcome.coverage,
                             n_unassigned=len(outcome.unassigned),
                             vocab_before=len(children),
                             vocab_after=len(children))
        if (len(outcome.unassigned) < tau_anom
                or outcome.coverage >= config.coverage_break
                or len(outcome.reports) <= config.min_error_reports):
            log.cycles.append(record)
            break
        proposals, proposal_items, prop_notes = propose_changes(
            outcome.reports, children, items_by_id, parent, cycle, config,
            gateway, provider)
        log.notes.extend(prop_notes)
        if not proposals:
            log.cycles.append(record)
            break
        decisions, review_notes, cycle_outliers, flagged = review_and_apply(
            proposals, parent, children, tree, proposal_items, gateway)
        log.notes.extend(review_notes)
        outliers.update(cycle_outliers)
        if flagged:
            parent_status = STATUS_OUTLIERS_RECORDED
        record.proposals = [p.to_json() | {"proposal_id": p.proposal_id}
                            for p in proposals]
        record.decisions = [{"proposal_id": d.proposal_id,
                             "decision": d.decision,
                             "reasoning": d.reasoning} for d in decisions]
        record.vocab_after = len(children)
        log.cycles.append(record)
    log.outlier_items = sorted(outliers)
    return RefineResult(children=children, log=log, last_outcome=outcome,
                        parent_status=parent_status)
