"""Line-oriented serializations used inside prompts.

Rule lists, item samples, ticket clusters, and proposal lists all render to
fixed single-line formats so both sides of the conversation (renderers here,
the deterministic mock backend, and log tooling) can parse them back.
"""

from __future__ import annotations

import re

_WS_RE = re.compile(r"\s+")

RULE_LINE_RE = re.compile(r"^- (\S+) :: (.*?) :: (.*)$")
ITEM_LINE_RE = re.compile(r"^- \[([^\]]+)\] (.*)$")
PROPOSAL_ID_RE = re.compile(r"^- proposal_id: (\S+) \|")


def flatten(text: str) -> str:
    """Collapse all whitespace runs so multi-line text fits on one line."""
    return _WS_RE.sub(" ", text).strip()


def rule_line(rule_id: str, name: str, description: str) -> str:
    return f"- {rule_id} :: {flatten(name)} :: {flatten(description)}"


def rules_text(rules) -> str:
    """``rules`` is an iterable of objects with rule_id/name/description."""
    return "\n".join(rule_line(r.rule_id, r.name, r.description) for r in rules)


def parse_rules(text: str) -> list[tuple[str, str, str]]:
    out = []
    for line in text.splitlines():
        match = RULE_LINE_RE.match(line.strip())
        if match:
            out.append((match.group(1), match.group(2), match.group(3)))
    return out


def item_line(item_id: str, text: str) -> str:
    return f"- [{item_id}] {flatten(text)}"


def items_text(pairs) -> str:
    """``pairs`` is an iterable of (item_id, text)."""
    return "\n".join(item_line(item_id, text) for item_id, text in pairs)


def parse_items(text: str) -> list[tuple[str, str]]:
    out = []
    for line in text.splitlines():
        match = ITEM_LINE_RE.match(line.strip())
        if match:
            out.append((match.group(1), match.group(2)))
    return out


def ticket_line(item_id: str, text: str, report: str) -> str:
    return f"- [{item_id}] {flatten(text)} | annotator_note: {flatten(report)}"


def proposal_line(proposal_id: str, change_type: str, summary: str, payload: str) -> str:
    return (f"- proposal_id: {proposal_id} | change_type: {change_type} | "
            f"problem_summary: {flatten(summary)} | payload: {flatten(payload)}")


def parse_proposal_ids(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        match = PROPOSAL_ID_RE.match(line.strip())
        if match:
            out.append(match.group(1))
    return out


def names_text(names) -> str:
    return "\n".join(f"- {name}" for name in names)


def parse_names(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("- "):
            out.append(line[2:].strip())
    return out


def section(text: str, start_marker: str, end_marker: str | None = None) -> str:
    """Slice of ``text`` between the end of ``start_marker`` and ``end_marker``."""
    start = text.index(start_marker) + len(start_marker)
    if end_marker is None:
        return text[start:]
    end = text.index(end_marker, start)
    return text[start:end]
