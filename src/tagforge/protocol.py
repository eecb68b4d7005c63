"""Typed wire protocols spoken between the pipeline and the LLM backends.

Parsing is tolerant about packaging (markdown fences, chatter before or after
the payload) but strict about shape: the first balanced JSON value is
extracted and then validated field by field.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable

CREATE_NEW_CATEGORY = "CREATE_NEW_CATEGORY"
EXPAND_EXISTING_CATEGORY = "EXPAND_EXISTING_CATEGORY"
IGNORE_AS_OUTLIERS = "IGNORE_AS_OUTLIERS"
CHANGE_TYPES = (CREATE_NEW_CATEGORY, EXPAND_EXISTING_CATEGORY, IGNORE_AS_OUTLIERS)

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

    def __post_init__(self) -> None:
        if not self.name:
            raise ProtocolError("category name must be non-empty")
        if not self.description:
            raise ProtocolError("category description must be non-empty")


@dataclass(frozen=True)
class ChangeProposal:
    proposal_id: str
    change_type: str
    problem_summary: str
    # Variant payload; exactly the fields matching change_type are set.
    new_rule_description: str | None = None
    rule_id_to_refine: str | None = None
    refined_description: str | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.change_type not in CHANGE_TYPES:
            raise ProtocolError(f"unknown change_type {self.change_type!r}")
        if self.change_type == CREATE_NEW_CATEGORY:
            ok = (self.new_rule_description and self.rule_id_to_refine is None
                  and self.refined_description is None and self.reason is None)
        elif self.change_type == EXPAND_EXISTING_CATEGORY:
            ok = (self.rule_id_to_refine and self.refined_description
                  and self.new_rule_description is None and self.reason is None)
            if ok and not ("INCLUDES" in self.refined_description
                           and "EXCLUDES" in self.refined_description):
                raise ProtocolError(
                    "refined_description must contain both INCLUDES and EXCLUDES"
                )
        else:
            ok = (self.reason and self.new_rule_description is None
                  and self.rule_id_to_refine is None and self.refined_description is None)
        if not ok:
            raise ProtocolError(
                f"suggested_change payload does not match change_type {self.change_type}"
            )


@dataclass(frozen=True)
class ReviewDecision:
    proposal_id: str
    decision: str
    reasoning: str = ""

    def __post_init__(self) -> None:
        if self.decision not in (APPROVED, REJECTED):
            raise ProtocolError(f"unknown decision {self.decision!r}")


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n?|```")


def extract_json(raw: str):
    """Return the first balanced JSON object or array found in ``raw``.

    Code fences and any preamble/suffix text are stripped first.
    """
    text = _FENCE_RE.sub("", raw)
    start = None
    for i, ch in enumerate(text):
        if ch in "{[":
            start = i
            break
    if start is None:
        raise ProtocolError("no JSON object or array found in response")
    opener = text[start]
    closer = "}" if opener == "{" else "]"
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth == 0:
                if ch != closer:
                    break
                try:
                    return json.loads(text[start:i + 1])
                except json.JSONDecodeError as exc:
                    raise ProtocolError(f"invalid JSON payload: {exc.msg}") from exc
    raise ProtocolError("unbalanced JSON in response")


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


def parse_change_proposal(raw: str, proposal_id: str | None = None) -> ChangeProposal:
    """Parse one structured change proposal (three documented shapes)."""
    payload = extract_json(raw)
    if not isinstance(payload, dict):
        raise ProtocolError("change proposal must be a JSON object")
    change_type = _require_str(payload, "change_type", "proposal")
    summary = _require_str(payload, "problem_summary", "proposal")
    change = payload.get("suggested_change")
    if not isinstance(change, dict):
        raise ProtocolError('proposal: missing "suggested_change" object')
    if proposal_id is None:
        digest = hashlib.sha1(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        proposal_id = f"prop_{digest[:8]}"
    if change_type == CREATE_NEW_CATEGORY:
        return ChangeProposal(
            proposal_id=proposal_id, change_type=change_type, problem_summary=summary,
            new_rule_description=_require_str(change, "new_rule_description",
                                              "suggested_change"),
        )
    if change_type == EXPAND_EXISTING_CATEGORY:
        return ChangeProposal(
            proposal_id=proposal_id, change_type=change_type, problem_summary=summary,
            rule_id_to_refine=_require_str(change, "rule_id_to_refine", "suggested_change"),
            refined_description=_require_str(change, "refined_description",
                                             "suggested_change"),
        )
    if change_type == IGNORE_AS_OUTLIERS:
        return ChangeProposal(
            proposal_id=proposal_id, change_type=change_type, problem_summary=summary,
            reason=_require_str(change, "reason", "suggested_change"),
        )
    raise ProtocolError(f"unknown change_type {change_type!r}")


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


parse_path_choice = _string_list("path_rule_ids")  # one-shot path, maybe empty
parse_name_list = _string_list("selected")  # user simulator: section names
parse_keywords = _string_list("keywords")  # free-form tagging


def serialize_categories(categories: list[CategoryProposal]) -> str:
    return json.dumps({"categories": [
        {"name": c.name, "description": c.description,
         "includes": list(c.includes), "excludes": list(c.excludes)}
        for c in categories
    ]}, ensure_ascii=False)


def serialize_change_proposal(proposal: ChangeProposal) -> str:
    if proposal.change_type == CREATE_NEW_CATEGORY:
        change = {"new_rule_description": proposal.new_rule_description}
    elif proposal.change_type == EXPAND_EXISTING_CATEGORY:
        change = {"rule_id_to_refine": proposal.rule_id_to_refine,
                  "refined_description": proposal.refined_description}
    else:
        change = {"reason": proposal.reason}
    return json.dumps({"change_type": proposal.change_type,
                       "problem_summary": proposal.problem_summary,
                       "suggested_change": change}, ensure_ascii=False)
