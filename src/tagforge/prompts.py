"""Prompt templates and the slot renderer.

Slots are written ``{slot_name}``; a slot name is an identifier optionally of
the form ``fn(arg)``. Literal braces that do not wrap such a name (e.g. the
JSON examples inside the templates) are left untouched, so the templates can
embed JSON verbatim without escaping. A batch that sends one template to
many items renders the fixed text once with :func:`prompt_frame` and joins
each item's text in.
"""

from __future__ import annotations

import re

ARCHITECT_INIT = "ArchitectInit"
ANNOTATOR_PROPOSE = "AnnotatorPropose"
ANNOTATOR_ERROR_FEEDBACK = "AnnotatorErrorFeedback"
ARCHITECT_REVIEW = "ArchitectReview"
ASSIGN_ITEM = "AssignItem"
FREEFORM_TAG = "FreeformTag"
USER_SIMULATOR = "UserSimulator"

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*(?:\([A-Za-z_][A-Za-z0-9_]*\))?)\}")


class PromptError(ValueError):
    """Unknown template or incomplete slot bindings."""


TEMPLATES: dict[str, str] = {
    ARCHITECT_INIT: """\
You are an expert taxonomy architect. Your task is to create a set of fine-grained sub-categories.
The items you are categorizing all belong to the parent category: "{parent_rule_description}".

Your new categories MUST be more specific subdivisions of this parent category. Do not simply repeat the parent category's name. For example, if the parent is "Firearm Accessories", your sub-categories should be "Optics", "Holsters", "Cleaning Kits", etc., not "Firearm Accessories" again.

Primary Goal: Create a set of ~{n_target_rules} mutually exclusive sub-categories that logically partition the parent.

{context_prompt}
Input Data:
Below are diverse product examples. Use them to understand the product landscape you need to partition.
{sample_text}

Task & Strict Output Format:
Devise a set of categories. For each, provide a "name" and a "description" with "INCLUDES" and "EXCLUDES" clauses. Respond ONLY with a single JSON object: {"categories": [{...}]}.

Your JSON Response:
""",
    ANNOTATOR_PROPOSE: """\
{context_prompt}
Above, I have provided the parent category and some product examples.

Your Goal:
Propose a list of exactly {n_target_rules} sub-categories.

Constraint - Overlap:
Sub-categories must be mutually exclusive.

Constraint - Coverage:
Together, they should cover most common items found in "{parent_rule_description}".

Constraint - Specificity:
Do NOT create a "Miscellaneous" or "Other" category. Every category must have a specific, meaningful name.

Constraint - Style:
Use professional, industry-standard terminology.

Output Format:
Your response must be a JSON object with the following structure:
{
  "categories": [
    {
      "name": "Category Name",
      "description": "Definition of what is included",
      "includes": ["Example 1", "Example 2"],
      "excludes": ["Non-example 1"]
    }
  ]
}
""",
    ANNOTATOR_ERROR_FEEDBACK: """\
You are a data analyst specializing in taxonomy quality control. Analyze a cluster of {len(ticket_cluster)} uncategorized products and synthesize a single, structured change proposal.

Existing Category Rules:
{existing_rules_text}

Analysis of Uncategorized Items:
{ticket_examples_text}

Task: Decide the most logical action and formulate a proposal. Respond ONLY with a single JSON object. Your response MUST strictly follow one of the formats below.

1. To create a new category:
{"change_type": "CREATE_NEW_CATEGORY", "problem_summary": "<summary>", "suggested_change": {"new_rule_description": "New Category Name: INCLUDES: ... EXCLUDES: ..."}}

2. To expand an existing category (THIS IS A VERY STRICT FORMAT):
The "refined_description" MUST be a single complete string, starting with a name, then "INCLUDES", then "EXCLUDES".
GOOD EXAMPLE:
{
  "change_type": "EXPAND_EXISTING_CATEGORY",
  "problem_summary": "The current 'Outdoor Gear' rule is too generic and should explicitly include tactical accessories.",
  "suggested_change": {
    "rule_id_to_refine": "rule_a4368cef",
    "refined_description": "Outdoor & Tactical Gear: INCLUDES: Tents, backpacks, sleeping bags, and tactical accessories like gloves, belts, and pouches. EXCLUDES: Specialized sporting equipment, firearms, and knives."
  }
}

3. To ignore outliers:
{"change_type": "IGNORE_AS_OUTLIERS", "problem_summary": "<summary>", "suggested_change": {"reason": "<reason>"}}

Your JSON Response:
""",
    ARCHITECT_REVIEW: """\
You are a senior taxonomy manager. Review the following change proposals and decide whether to approve or reject each. Your goal is a clean, non-overlapping taxonomy. But if the proposal is reasonable, you should try to accomodate that. You should also reject proposals that are out-of-place by common sense. Respond ONLY with a JSON list of objects, each with "proposal_id", "decision" ('APPROVED' or 'REJECTED'), and "reasoning".

Proposals for Review:
{proposals_text}

Your JSON Decision List:
""",
    ASSIGN_ITEM: """\
You are annotating catalog items with category rules.

Candidate rules:
{rules_text}

Item:
{item_text}

{instruction}

Your JSON Response:
""",
    FREEFORM_TAG: """\
Generate exactly {n_tags} short keywords that describe the following item. Respond ONLY with a single JSON object: {"keywords": ["...", "..."]}.

Item:
{item_text}

Your JSON Response:
""",
    USER_SIMULATOR: """\
You are simulating a user browsing a catalog. The user wants the following item next:
{target_text}

The catalog organizes items under these top-level sections:
{level1_names_text}

Select every section that could plausibly contain the item. Respond ONLY with a single JSON object: {"selected": ["<section name>"]}.

Your JSON Response:
""",
}

# Per-mode instructions slotted into AssignItem.
ASSIGN_MULTI_INSTRUCTION = (
    'List every rule that fits the item. Respond ONLY with a single JSON object: '
    '{"matched_rule_ids": ["rule_..."], "reason": null}. '
    'If no rule fits, respond {"matched_rule_ids": [], "reason": "<what the item is about '
    'and why no rule covers it>"}.'
)
ASSIGN_BEST_INSTRUCTION = (
    'Pick the single best-fitting rule. Respond ONLY with a single JSON object: '
    '{"best_rule_id": "rule_..."}. If no rule fits, respond {"best_rule_id": "STOP"}.'
)
FORMAT_REMINDER = (
    "REMINDER: your previous response could not be parsed. "
    "Respond ONLY with the exact JSON format requested above, with no extra text."
)


def template_slots(template_id: str) -> set[str]:
    """Slot names declared by a template."""
    try:
        text = TEMPLATES[template_id]
    except KeyError:
        raise PromptError(f"unknown template_id {template_id!r}") from None
    return set(_SLOT_RE.findall(text))


def render_prompt(template_id: str, bindings: dict[str, str]) -> str:
    """Fill every slot of ``template_id`` from ``bindings``.

    Raises :class:`PromptError` when a slot is unbound or a binding names no
    slot. Rendering is deterministic: same inputs, byte-identical output.
    """
    _check_bindings(template_id, set(bindings))
    return _fill(TEMPLATES[template_id], bindings)


def prompt_frame(template_id: str, bindings: dict[str, str],
                 slot: str) -> tuple[str, str]:
    """The text before and after ``slot``, every other slot filled from
    ``bindings``.

    ``head + value + tail == render_prompt(template_id, {**bindings, slot:
    value})`` for every ``value``, so a batch checks and renders its fixed
    text once and each call only joins its own value in. Raises
    :class:`PromptError` as :func:`render_prompt` does, and when ``slot`` is
    bound too or occurs more than once.
    """
    _check_bindings(template_id, {*bindings, slot})
    marker = "{" + slot + "}"
    head, _, tail = TEMPLATES[template_id].partition(marker)
    if slot in bindings or marker in tail:
        raise PromptError(f"{template_id}: {slot!r} is not one open slot")
    return _fill(head, bindings), _fill(tail, bindings)


def _check_bindings(template_id: str, names: set[str]) -> None:
    slots = template_slots(template_id)
    missing = slots - names
    if missing:
        raise PromptError(
            f"{template_id}: missing slot binding(s): {', '.join(sorted(missing))}"
        )
    extra = names - slots
    if extra:
        raise PromptError(
            f"{template_id}: unknown slot binding(s): {', '.join(sorted(extra))}"
        )


def _fill(text: str, bindings: dict[str, str]) -> str:
    return _SLOT_RE.sub(lambda match: str(bindings[match.group(1)]), text)
