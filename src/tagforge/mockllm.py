"""Deterministic mock backend driven by a planted taxonomy.

The mock answers every pipeline prompt from the hidden ground truth:

* category proposals list the true children of the current parent that are
  visible in the sampled items (names withheld via ``hidden_categories`` are
  omitted, modelling an imperfect initial view);
* annotation matches a rule iff the rule's name occurs as a token of the
  item text, subject to an optional false-negative rate;
* error feedback proposes creating the most common missing true child;
* reviews approve everything.

Responses are a pure function of (taxonomy, prompt, seed), so repeated runs
produce identical transcripts.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

from . import wire
from .planted import PlantedTaxonomy, tokenize
from .vocab import ROOT_NAME
from .protocol import CREATE_NEW_CATEGORY, IGNORE_AS_OUTLIERS

_PARENT_RE = re.compile(r'[Pp]arent category: "([^"]*)"')
_FOUND_IN_RE = re.compile(r'found in "([^"]*)"')
_N_TAGS_RE = re.compile(r"Generate exactly (\d+)")


def category_description(name: str) -> str:
    return (f"{name}: INCLUDES: items mentioning {name}. "
            f"EXCLUDES: items about sibling topics.")


class MockLLMBackend:
    """Planted-oracle backend; plug into both gateway roles."""

    def __init__(self, taxonomy: PlantedTaxonomy, seed: int = 0,
                 false_negative_rate: float = 0.0,
                 hidden_categories: frozenset[str] | set[str] = frozenset()):
        self.taxonomy = taxonomy
        self.seed = seed
        self.false_negative_rate = false_negative_rate
        self.hidden_categories = frozenset(hidden_categories)

    def generate(self, prompt: str) -> str:
        if "You are an expert taxonomy architect" in prompt:
            return self._propose_categories(prompt)
        if "Above, I have provided the parent category" in prompt:
            return self._propose_categories(prompt)
        if "You are a data analyst specializing in taxonomy quality control" in prompt:
            return self._error_feedback(prompt)
        if "You are a senior taxonomy manager" in prompt:
            return self._review(prompt)
        if "You are annotating catalog items" in prompt:
            return self._annotate(prompt)
        if "short keywords that describe the following item" in prompt:
            return self._freeform(prompt)
        if "You are simulating a user" in prompt:
            return self._simulate_user(prompt)
        digest = hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:12]
        return json.dumps({"echo": digest})

    # -- helpers ----------------------------------------------------------

    def _miss(self, item_id: str, name: str) -> bool:
        if self.false_negative_rate <= 0.0:
            return False
        key = f"{self.seed}|{item_id}|{name}".encode("utf-8")
        frac = int(hashlib.sha1(key).hexdigest()[:8], 16) / 0xFFFFFFFF
        return frac < self.false_negative_rate

    def _parent_name(self, prompt: str) -> str | None:
        match = _PARENT_RE.search(prompt) or _FOUND_IN_RE.search(prompt)
        if not match:
            return None
        name = match.group(1).split(":")[0].strip()
        return name if self.taxonomy.is_node(name) else None

    def _true_child(self, parent: str, item_text: str) -> str | None:
        tokens = tokenize(item_text)
        for child in self.taxonomy.child_names(parent):
            if child in tokens:
                return child
        return None

    # -- template handlers -------------------------------------------------

    def _propose_categories(self, prompt: str) -> str:
        parent = self._parent_name(prompt)
        samples = wire.parse_items(prompt)
        visible: list[str] = []
        if parent is not None:
            sample_tokens = set()
            for _, text in samples:
                sample_tokens |= tokenize(text)
            for child in self.taxonomy.child_names(parent):
                if child in sample_tokens and child not in self.hidden_categories:
                    visible.append(child)
        return json.dumps({"categories": [
            {"name": c, "description": category_description(c),
             "includes": [c], "excludes": []}
            for c in visible
        ]}, ensure_ascii=False)

    def _annotate(self, prompt: str) -> str:
        rules_section = wire.section(prompt, "Candidate rules:", "Item:")
        rules = wire.parse_rules(rules_section)
        items = wire.parse_items(wire.section(prompt, "Item:"))
        if not items:
            return json.dumps({"matched_rule_ids": [], "reason": "no item presented"})
        item_id, item_text = items[0]
        tokens = tokenize(item_text)
        hits = [(rid, name) for rid, name, _ in rules
                if name.lower() in tokens and not self._miss(item_id, name)]
        if '"path_rule_ids"' in prompt:
            hits.sort(key=lambda h: (self.taxonomy.depth.get(h[1], 99), h[1]))
            return json.dumps({"path_rule_ids": [rid for rid, _ in hits]})
        hits.sort(key=lambda h: h[1])
        if '"best_rule_id"' in prompt:
            return json.dumps({"best_rule_id": hits[0][0] if hits else "STOP"})
        if hits:
            return json.dumps({"matched_rule_ids": [rid for rid, _ in hits],
                               "reason": None})
        parent = self._rules_parent(rules)
        expected = self._true_child(parent, item_text) if parent else None
        if expected is not None:
            reason = f"uncovered topic: {expected}; no listed rule covers it"
        else:
            reason = "no listed rule matches this item"
        return json.dumps({"matched_rule_ids": [], "reason": reason})

    def _rules_parent(self, rules: list[tuple[str, str, str]]) -> str | None:
        for _, name, _ in rules:
            if name in self.taxonomy.parent:
                return self.taxonomy.parent[name]
        return ROOT_NAME if rules else None

    def _error_feedback(self, prompt: str) -> str:
        rules_section = wire.section(prompt, "Existing Category Rules:",
                                     "Analysis of Uncategorized Items:")
        rules = wire.parse_rules(rules_section)
        tickets = wire.parse_items(wire.section(prompt,
                                                "Analysis of Uncategorized Items:"))
        parent = self._rules_parent(rules)
        covered = {name for _, name, _ in rules}
        missing: Counter[str] = Counter()
        for _, text in tickets:
            child = self._true_child(parent, text) if parent else None
            if child is not None and child not in covered:
                missing[child] += 1
        if missing:
            # Most common missing true child; ties by name.
            name = sorted(missing.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            return json.dumps({
                "change_type": CREATE_NEW_CATEGORY,
                "problem_summary": f"items about {name} cannot be categorized",
                "suggested_change": {
                    "new_rule_description": category_description(name)},
            })
        return json.dumps({
            "change_type": IGNORE_AS_OUTLIERS,
            "problem_summary": "uncategorized items share no missing topic",
            "suggested_change": {"reason": "likely annotation noise"},
        })

    def _review(self, prompt: str) -> str:
        ids = wire.parse_proposal_ids(prompt)
        return json.dumps([
            {"proposal_id": pid, "decision": "APPROVED",
             "reasoning": "consistent with observed items"}
            for pid in ids
        ])

    def _freeform(self, prompt: str) -> str:
        match = _N_TAGS_RE.search(prompt)
        n_tags = int(match.group(1)) if match else 3
        items = wire.parse_items(wire.section(prompt, "Item:"))
        basis = items[0][1] if items else prompt
        digest = hashlib.sha1(basis.encode("utf-8")).hexdigest()
        tags = [f"kw{digest[i * 6:(i + 1) * 6]}" for i in range(n_tags)]
        return json.dumps({"keywords": tags})

    def _simulate_user(self, prompt: str) -> str:
        target = wire.section(prompt, "the following item next:",
                              "The catalog organizes")
        names = wire.parse_names(wire.section(prompt, "top-level sections:"))
        tokens = tokenize(target)
        selected = [name for name in names if name.lower() in tokens]
        return json.dumps({"selected": selected})
