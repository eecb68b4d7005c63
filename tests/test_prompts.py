from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tagforge import prompts, protocol, wire
from tagforge.assignment import _vocabulary_text, assign_paths
from tagforge.corpus import Corpus, Item
from tagforge.freeform import generate_freeform
from tagforge.gateway import AgentRole, Gateway
from tagforge.mockllm import MockLLMBackend
from tagforge.prompts import (PromptError, prompt_frame, render_prompt,
                              template_slots)
from tagforge.protocol import (APPROVED, EXPAND_EXISTING_CATEGORY, IGNORE_AS_OUTLIERS,
                               CategoryProposal, ChangeProposal, ProtocolError,
                               ReviewDecision, parse_categories,
                               parse_change_proposal, parse_matched_rules,
                               parse_reviews)
from tagforge.refinement import parallel_assign

from oracles import reference_extract_json, serialize_reviews

# The appendix EXPAND example, used verbatim in a couple of tests.
GOOD_EXPAND = json.dumps({
    "change_type": "EXPAND_EXISTING_CATEGORY",
    "problem_summary": "The current 'Outdoor Gear' rule is too generic and "
                       "should explicitly include tactical accessories.",
    "suggested_change": {
        "rule_id_to_refine": "rule_a4368cef",
        "refined_description": "Outdoor & Tactical Gear: INCLUDES: Tents, "
                               "backpacks, sleeping bags, and tactical "
                               "accessories like gloves, belts, and pouches. "
                               "EXCLUDES: Specialized sporting equipment, "
                               "firearms, and knives.",
    },
})


def _architect_bindings(**overrides):
    bindings = {
        "parent_rule_description": "Firearm Accessories",
        "n_target_rules": "15",
        "context_prompt": "",
        "sample_text": "- [i1] scope for rifles",
    }
    bindings.update(overrides)
    return bindings


def test_architect_init_contains_verbatim_guidance():
    text = render_prompt(prompts.ARCHITECT_INIT, _architect_bindings())
    for phrase in ('"Optics"', '"Holsters"', '"Cleaning Kits"'):
        assert phrase in text
    assert '"Firearm Accessories"' in text
    assert "~15 mutually exclusive sub-categories" in text


def test_render_missing_slot_names_the_slot():
    bindings = _architect_bindings()
    del bindings["sample_text"]
    with pytest.raises(PromptError, match="sample_text"):
        render_prompt(prompts.ARCHITECT_INIT, bindings)


def test_render_is_deterministic():
    a = render_prompt(prompts.ARCHITECT_INIT, _architect_bindings())
    b = render_prompt(prompts.ARCHITECT_INIT, _architect_bindings())
    assert a == b


def test_render_unknown_template():
    with pytest.raises(PromptError, match="unknown template_id"):
        render_prompt("NoSuchTemplate", {})


def test_json_literals_in_templates_are_not_slots():
    slots = template_slots(prompts.ARCHITECT_INIT)
    assert slots == {"parent_rule_description", "n_target_rules",
                     "context_prompt", "sample_text"}
    assert template_slots(prompts.ANNOTATOR_ERROR_FEEDBACK) == {
        "len(ticket_cluster)", "existing_rules_text", "ticket_examples_text"}


def test_error_feedback_renders_paren_slot():
    text = render_prompt(prompts.ANNOTATOR_ERROR_FEEDBACK, {
        "len(ticket_cluster)": "7",
        "existing_rules_text": "- rule_00000000 :: A :: A: INCLUDES: a. EXCLUDES: b.",
        "ticket_examples_text": "- [i1] odd product",
    })
    assert "a cluster of 7 uncategorized products" in text
    assert "rule_a4368cef" in text  # the strict-format example survives


def test_no_unresolved_slots_after_render():
    text = render_prompt(prompts.ARCHITECT_REVIEW, {"proposals_text": "- x"})
    for slot in template_slots(prompts.ARCHITECT_REVIEW):
        assert "{" + slot + "}" not in text


def test_parse_categories_basic():
    raw = ('{"categories":[{"name":"Optics","description":"scopes etc",'
           '"includes":["scopes"],"excludes":["mounts"]}]}')
    cats = parse_categories(raw)
    assert len(cats) == 1
    assert cats[0].name == "Optics"
    assert cats[0].includes == ("scopes",)


def test_parse_categories_fenced_equals_bare():
    bare = ('{"categories":[{"name":"A","description":"d"}]}')
    fenced = f"Sure! Here you go:\n```json\n{bare}\n```\nHope that helps."
    assert parse_categories(fenced) == parse_categories(bare)


def test_parse_categories_empty_is_error():
    with pytest.raises(ProtocolError, match="empty category list"):
        parse_categories('{"categories": []}')


def test_parse_categories_missing_field():
    with pytest.raises(ProtocolError, match="description"):
        parse_categories('{"categories":[{"name":"A"}]}')


def test_parse_change_proposal_good_expand_example():
    proposal = parse_change_proposal(GOOD_EXPAND, "p1")
    assert proposal.proposal_id == "p1"
    assert proposal.change_type == EXPAND_EXISTING_CATEGORY
    assert proposal.change["rule_id_to_refine"] == "rule_a4368cef"
    assert proposal.change["refined_description"].startswith("Outdoor & Tactical Gear:")
    assert proposal.to_json() == json.loads(GOOD_EXPAND)


def test_parse_change_proposal_ignore_variant():
    raw = ('{"change_type":"IGNORE_AS_OUTLIERS","problem_summary":"x",'
           '"suggested_change":{"reason":"y","new_rule_description":"z"}}')
    proposal = parse_change_proposal(raw, "p1")
    assert proposal.change_type == IGNORE_AS_OUTLIERS
    assert proposal.change == {"reason": "y"}


def test_expand_without_excludes_token_rejected():
    raw = json.dumps({
        "change_type": "EXPAND_EXISTING_CATEGORY",
        "problem_summary": "s",
        "suggested_change": {"rule_id_to_refine": "rule_a4368cef",
                             "refined_description": "Gear: INCLUDES: things."},
    })
    with pytest.raises(ProtocolError, match="EXCLUDES"):
        parse_change_proposal(raw, "p1")


def test_parse_change_proposal_unknown_type():
    raw = ('{"change_type":"DELETE_EVERYTHING","problem_summary":"x",'
           '"suggested_change":{"reason":"y"}}')
    with pytest.raises(ProtocolError):
        parse_change_proposal(raw, "p1")


def test_parse_reviews_duplicate_id_is_error():
    raw = json.dumps([
        {"proposal_id": "p1", "decision": "APPROVED", "reasoning": "r"},
        {"proposal_id": "p1", "decision": "REJECTED", "reasoning": "r"},
    ])
    with pytest.raises(ProtocolError, match="duplicate"):
        parse_reviews(raw)


def test_parse_matched_rules_requires_reason_when_empty():
    ids, reason = parse_matched_rules(
        '{"matched_rule_ids": ["rule_00000001"], "reason": null}')
    assert ids == ["rule_00000001"] and reason is None
    ids, reason = parse_matched_rules(
        '{"matched_rule_ids": [], "reason": "nothing fits"}')
    assert ids == [] and reason == "nothing fits"
    with pytest.raises(ProtocolError):
        parse_matched_rules('{"matched_rule_ids": [], "reason": ""}')


def _random_word(rng):
    return "".join(rng.choice("abcdeflayout") for _ in range(rng.randint(3, 9)))


def test_round_trip_properties_random_instances():
    rng = random.Random(2024)
    for _ in range(50):
        cats = [CategoryProposal(
            name=_random_word(rng),
            description=f"{_random_word(rng)}: INCLUDES: x. EXCLUDES: y.",
            includes=tuple(_random_word(rng) for _ in range(rng.randint(0, 3))),
            excludes=tuple(_random_word(rng) for _ in range(rng.randint(0, 2))),
        ) for _ in range(rng.randint(1, 5))]
        raw = json.dumps({"categories": [
            {"name": c.name, "description": c.description,
             "includes": list(c.includes), "excludes": list(c.excludes)}
            for c in cats]})
        assert parse_categories(raw) == cats

        kind = rng.choice(sorted(protocol.CHANGE_FIELDS))
        proposal = ChangeProposal(
            proposal_id="prop_00000000", change_type=kind,
            problem_summary=_random_word(rng),
            change={key: f"{_random_word(rng)}: INCLUDES: a. EXCLUDES: b."
                    for key in protocol.CHANGE_FIELDS[kind]})
        parsed = parse_change_proposal(json.dumps(proposal.to_json()),
                                       proposal_id="prop_00000000")
        assert parsed == proposal

        reviews = [ReviewDecision(proposal_id=f"p{j}",
                                  decision=rng.choice([APPROVED, "REJECTED"]),
                                  reasoning=_random_word(rng))
                   for j in range(rng.randint(1, 4))]
        assert parse_reviews(serialize_reviews(reviews)) == reviews


def test_extract_json_prefers_first_balanced_value():
    raw = 'noise {"a": {"b": [1, 2]}} trailing {"c": 3}'
    assert protocol.extract_json(raw) == {"a": {"b": [1, 2]}}
    with pytest.raises(ProtocolError):
        protocol.extract_json("no json here at all")


# Text for JSON strings and the chatter around a payload: braces, brackets,
# quotes, backslashes and backticks inside strings, non-ASCII letters.
_JSON_CHARS = 'ab {}[]"\\:,\n`é/'
_CHATTER = "Here is the JSON: ok\n`é."
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet=_JSON_CHARS, max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(alphabet=_JSON_CHARS, max_size=6),
                                        children, max_size=4)),
    max_leaves=12)
_json_payloads = st.builds(
    json.dumps,
    st.lists(_json_values, max_size=4)
    | st.dictionaries(st.text(alphabet=_JSON_CHARS, max_size=6), _json_values,
                      max_size=4),
    indent=st.sampled_from([None, 2]), ensure_ascii=st.booleans())


def _outcome(parse, raw: str):
    """What ``parse`` makes of ``raw``: the value as JSON text, so that 1,
    1.0 and true stay apart, or the ProtocolError."""
    try:
        return json.dumps(parse(raw))
    except ProtocolError:
        return ProtocolError


@settings(max_examples=300, deadline=None)
@given(preamble=st.text(alphabet=_CHATTER, max_size=12)
       | st.text(alphabet=_JSON_CHARS, max_size=6),
       fence=st.sampled_from(["", "```", "```json\n"]),
       payload=_json_payloads,
       cut=st.integers(min_value=0, max_value=3),
       suffix=st.text(alphabet=_JSON_CHARS + _CHATTER, max_size=12))
def test_extract_json_matches_the_scanning_oracle(preamble, fence, payload, cut,
                                                  suffix):
    # ``cut`` drops trailing characters, so truncated payloads are tried too.
    payload = payload[:len(payload) - cut]
    raw = f"{preamble}{fence}{payload}{'```' if fence else ''}{suffix}"
    assert _outcome(protocol.extract_json, raw) == _outcome(reference_extract_json, raw)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='{}[]"\\:,0-1.eE tfnul`x\n', max_size=24))
def test_extract_json_matches_the_oracle_on_any_text(raw):
    assert _outcome(protocol.extract_json, raw) == _outcome(reference_extract_json, raw)


def test_prompt_frame_joins_to_render_prompt():
    bindings = {"rules_text": "- rule_1 :: A {x} :: b", "instruction": "{item_text}"}
    head, tail = prompt_frame(prompts.ASSIGN_ITEM, bindings, "item_text")
    for value in ("- [i1] text", "", "{rules_text} \\1 {}"):
        assert head + value + tail == render_prompt(
            prompts.ASSIGN_ITEM, {**bindings, "item_text": value})
    with pytest.raises(PromptError, match="missing slot binding"):
        prompt_frame(prompts.ASSIGN_ITEM, {"rules_text": "r"}, "item_text")
    with pytest.raises(PromptError, match="unknown slot binding"):
        prompt_frame(prompts.ASSIGN_ITEM, {**bindings, "n_tags": "3"}, "item_text")
    with pytest.raises(PromptError, match="not one open slot"):
        prompt_frame(prompts.ASSIGN_ITEM, {**bindings, "item_text": "x"}, "item_text")


class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.prompts: list[str] = []

    def generate(self, prompt):
        self.prompts.append(prompt)  # list.append is atomic under the GIL
        return self.inner.generate(prompt)


def _recording_gateway(world):
    backend = _RecordingBackend(MockLLMBackend(world.taxonomy, seed=0))
    gateway = Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend})
    return gateway, backend.prompts


def _item_text(item) -> str:
    return wire.item_line(item.item_id, item.prompt_text())


def test_batched_prompts_are_render_prompt_of_their_node_and_item(small_build):
    """Every prompt the batched annotator calls send is, byte for byte, what
    ``render_prompt`` makes of that node's rules and that item."""
    world, state = small_build
    tree = state.tree
    odd = Item(item_id="odd-ü", title="Tab\tand  spaces {x}",
               body='line\nbreak é "quoted" \\1 {item_text}')
    corpus = Corpus(list(world.corpus)[:20] + [odd])

    gateway, sent = _recording_gateway(world)
    records = assign_paths(corpus, tree, gateway, parallelism=2)
    items = {item.item_id: item for item in corpus}
    expected = Counter(
        render_prompt(prompts.ASSIGN_ITEM, {
            "rules_text": wire.rules_text(tree.children_of(rule_id)),
            "item_text": _item_text(items[rec.item_id]),
            "instruction": prompts.ASSIGN_BEST_INSTRUCTION})
        for rec in records for rule_id in (tree.root_id, *rec.path)
        if tree.children.get(rule_id))
    assert sum(expected.values()) > len(corpus)
    assert Counter(sent) == expected

    gateway, sent = _recording_gateway(world)
    assign_paths(corpus, tree, gateway, parallelism=2, mode="one-shot")
    assert Counter(sent) == Counter(
        render_prompt(prompts.ASSIGN_ITEM, {
            "rules_text": _vocabulary_text(tree), "item_text": _item_text(item),
            "instruction": prompts.ASSIGN_PATH_INSTRUCTION})
        for item in corpus)

    gateway, sent = _recording_gateway(world)
    rules = tree.children_of(tree.root_id)
    parallel_assign(list(corpus), rules, gateway, parallelism=2)
    assert Counter(sent) == Counter(
        render_prompt(prompts.ASSIGN_ITEM, {
            "rules_text": wire.rules_text(rules), "item_text": _item_text(item),
            "instruction": prompts.ASSIGN_MULTI_INSTRUCTION})
        for item in corpus)

    gateway, sent = _recording_gateway(world)
    generate_freeform(corpus, gateway, n_tags_per_item=3, parallelism=2)
    assert Counter(sent) == Counter(
        render_prompt(prompts.FREEFORM_TAG, {"n_tags": "3",
                                             "item_text": _item_text(item)})
        for item in corpus)
