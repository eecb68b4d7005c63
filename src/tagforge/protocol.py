"""Typed wire protocols spoken between the pipeline and the LLM backends.

Parsing is tolerant about packaging (markdown fences, chatter before or after
the payload) but strict about shape: the first balanced JSON value is
extracted and then validated field by field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

CREATE_NEW_CATEGORY = "CREATE_NEW_CATEGORY"
EXPAND_EXISTING_CATEGORY = "EXPAND_EXISTING_CATEGORY"
IGNORE_AS_OUTLIERS = "IGNORE_AS_OUTLIERS"
# The required fields of each change type's ``suggested_change``, in wire order.
CHANGE_FIELDS = {
    CREATE_NEW_CATEGORY: ("new_rule_description",),
    EXPAND_EXISTING_CATEGORY: ("rule_id_to_refine", "refined_description"),
    IGNORE_AS_OUTLIERS: ("reason",),
}

APPROVED = "APPROVED"
REJECTED = "REJECTED"

STOP = "STOP"


class ProtocolError(ValueError):
    """Response text does not follow the documented protocol."""


@dataclass(frozen=True)
class CategoryProposal:
    name: str
    description: str
    includes: tuple[str, ...] = ()
    excludes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChangeProposal:
    """``change`` is the ``suggested_change`` object: exactly the fields
    :data:`CHANGE_FIELDS` lists for ``change_type``."""

    proposal_id: str
    change_type: str
    problem_summary: str
    change: dict[str, str]

    def to_json(self) -> dict:
        """The proposal as the annotator wrote it, without its id."""
        return {"change_type": self.change_type,
                "problem_summary": self.problem_summary,
                "suggested_change": self.change}


@dataclass(frozen=True)
class ReviewDecision:
    proposal_id: str
    decision: str
    reasoning: str = ""

    def __post_init__(self) -> None:
        if self.decision not in (APPROVED, REJECTED):
            raise ProtocolError(f"unknown decision {self.decision!r}")


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n?|```")
_OPENER_RE = re.compile(r"[{\[]")
_DECODER = json.JSONDecoder()


def extract_json(raw: str):
    """Return the JSON object or array that starts at the first ``{`` or
    ``[`` in ``raw``; what follows it is ignored.

    Code fences are stripped first.
    """
    text = _FENCE_RE.sub("", raw)
    opener = _OPENER_RE.search(text)
    if opener is None:
        raise ProtocolError("no JSON object or array found in response")
    try:
        return _DECODER.raw_decode(text, opener.start())[0]
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON payload: {exc.msg}") from exc


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{where}: missing or empty field {key!r}")
    return value


def _str_list(value, where: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ProtocolError(f"{where}: expected a list")
    return tuple(str(v) for v in value)


def parse_categories(raw: str) -> list[CategoryProposal]:
    """Parse an architect/annotator category list response."""
    payload = extract_json(raw)
    if not isinstance(payload, dict) or "categories" not in payload:
        raise ProtocolError('expected an object with a "categories" field')
    cats = payload["categories"]
    if not isinstance(cats, list):
        raise ProtocolError('"categories" must be a list')
    out = []
    for i, cat in enumerate(cats):
        if not isinstance(cat, dict):
            raise ProtocolError(f"categories[{i}] is not an object")
        out.append(CategoryProposal(
            name=_require_str(cat, "name", f"categories[{i}]"),
            description=_require_str(cat, "description", f"categories[{i}]"),
            includes=_str_list(cat.get("includes"), f"categories[{i}].includes"),
            excludes=_str_list(cat.get("excludes"), f"categories[{i}].excludes"),
        ))
    if not out:
        raise ProtocolError("empty category list")
    return out


def parse_change_proposal(raw: str, proposal_id: str) -> ChangeProposal:
    """Parse one structured change proposal; its fields come from
    :data:`CHANGE_FIELDS`, and other keys of ``suggested_change`` are dropped."""
    payload = extract_json(raw)
    if not isinstance(payload, dict):
        raise ProtocolError("change proposal must be a JSON object")
    change_type = _require_str(payload, "change_type", "proposal")
    summary = _require_str(payload, "problem_summary", "proposal")
    suggested = payload.get("suggested_change")
    if not isinstance(suggested, dict):
        raise ProtocolError('proposal: missing "suggested_change" object')
    if change_type not in CHANGE_FIELDS:
        raise ProtocolError(f"unknown change_type {change_type!r}")
    change = {key: _require_str(suggested, key, "suggested_change")
              for key in CHANGE_FIELDS[change_type]}
    refined = change.get("refined_description")
    if refined is not None and not ("INCLUDES" in refined and "EXCLUDES" in refined):
        raise ProtocolError("refined_description must contain both INCLUDES and EXCLUDES")
    return ChangeProposal(proposal_id, change_type, summary, change)


def parse_reviews(raw: str) -> list[ReviewDecision]:
    """Parse the architect's review list."""
    payload = extract_json(raw)
    if isinstance(payload, dict):  # tolerate {"decisions": [...]} wrapping
        payload = payload.get("decisions", payload)
    if not isinstance(payload, list):
        raise ProtocolError("reviews must be a JSON list")
    seen: set[str] = set()
    out = []
    for i, row in enumerate(payload):
        if not isinstance(row, dict):
            raise ProtocolError(f"reviews[{i}] is not an object")
        pid = _require_str(row, "proposal_id", f"reviews[{i}]")
        if pid in seen:
            raise ProtocolError(f"duplicate proposal_id {pid!r} in reviews")
        seen.add(pid)
        out.append(ReviewDecision(
            proposal_id=pid,
            decision=_require_str(row, "decision", f"reviews[{i}]"),
            reasoning=str(row.get("reasoning", "")),
        ))
    return out


def parse_matched_rules(raw: str) -> tuple[list[str], str | None]:
    """Parse the multi-match annotation response: (rule ids, none-reason)."""
    payload = extract_json(raw)
    if not isinstance(payload, dict) or "matched_rule_ids" not in payload:
        raise ProtocolError('expected an object with "matched_rule_ids"')
    ids = payload["matched_rule_ids"]
    if not isinstance(ids, list):
        raise ProtocolError('"matched_rule_ids" must be a list')
    ids = [str(v) for v in ids]
    reason = payload.get("reason")
    if ids:
        return ids, None
    if not isinstance(reason, str) or not reason:
        raise ProtocolError("empty match requires a non-empty reason")
    return [], reason


def parse_best_rule(raw: str) -> str:
    """Parse the single-best annotation response: a rule id or STOP."""
    payload = extract_json(raw)
    if not isinstance(payload, dict):
        raise ProtocolError("best-rule response must be a JSON object")
    return _require_str(payload, "best_rule_id", "best-rule response")


def _string_list(key: str) -> Callable[[str], list[str]]:
    """Parser of a response object whose ``key`` holds a list of strings."""
    def parse(raw: str) -> list[str]:
        payload = extract_json(raw)
        if not isinstance(payload, dict) or key not in payload:
            raise ProtocolError(f'expected an object with "{key}"')
        values = payload[key]
        if not isinstance(values, list):
            raise ProtocolError(f'"{key}" must be a list')
        return [str(v) for v in values]
    return parse


parse_name_list = _string_list("selected")  # user simulator: section names
parse_keywords = _string_list("keywords")  # free-form tagging
