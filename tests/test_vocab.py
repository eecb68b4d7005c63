from __future__ import annotations

import pytest

from tagforge.vocab import (BuildConfig, DescriptorNode, VocabularyError,
                            VocabularyTree, make_rule_id)


def test_rule_id_format():
    rid = make_rule_id("parent", "name")
    assert rid.startswith("rule_")
    assert len(rid) == len("rule_") + 8
    assert make_rule_id("parent", "name") == rid  # content-addressed


def test_descriptor_node_rejects_bad_rule_id():
    with pytest.raises(VocabularyError):
        DescriptorNode(rule_id="rule_XYZ", name="n", description="d",
                       parent=None, depth=0)


def _tree():
    return VocabularyTree(root_items={"a", "b", "c"})


def test_add_child_enforces_subset_and_depth():
    tree = _tree()
    rid = tree.fresh_rule_id(tree.root_id, "kid")
    tree.add_child(tree.root_id, DescriptorNode(
        rule_id=rid, name="kid", description="kid: INCLUDES: x. EXCLUDES: y.",
        parent=tree.root_id, depth=1, items={"a"}))
    with pytest.raises(VocabularyError, match="subset"):
        tree.add_child(rid, DescriptorNode(
            rule_id=tree.fresh_rule_id(rid, "grand"), name="grand",
            description="d", parent=rid, depth=2, items={"b"}))
    grand2 = tree.fresh_rule_id(rid, "grand2")
    with pytest.raises(VocabularyError,
                       match=rf"^{grand2}: depth 3, .* at depth 1$"):
        tree.add_child(rid, DescriptorNode(
            rule_id=grand2, name="grand2",
            description="d", parent=rid, depth=3, items={"a"}))
    assert set(tree.nodes) == {tree.root_id, rid}
    assert tree.children == {tree.root_id: [rid], rid: []}


def test_fresh_rule_id_salts_on_collision():
    tree = _tree()
    rid = tree.fresh_rule_id(tree.root_id, "kid")
    tree.add_child(tree.root_id, DescriptorNode(
        rule_id=rid, name="kid", description="d", parent=tree.root_id,
        depth=1))
    rid2 = tree.fresh_rule_id(tree.root_id, "kid")
    assert rid2 != rid


def test_fresh_rule_id_skips_uncommitted_ids():
    tree = _tree()
    rid = tree.fresh_rule_id(tree.root_id, "kid")
    assert tree.fresh_rule_id(tree.root_id, "kid", {rid}) != rid
    assert tree.fresh_rule_id(tree.root_id, "kid") == rid


def test_tree_save_load_round_trip(tmp_path):
    tree = _tree()
    rid = tree.fresh_rule_id(tree.root_id, "kid")
    tree.add_child(tree.root_id, DescriptorNode(
        rule_id=rid, name="kid", description="kid: INCLUDES: x. EXCLUDES: y.",
        parent=tree.root_id, depth=1, items={"a", "b"}))
    tree_path = tmp_path / "t.json"
    tree.save(tree_path)
    loaded = VocabularyTree.load(tree_path)

    def structure(payload):
        for raw in payload["nodes"].values():
            del raw["item_count"]
        return payload

    assert structure(loaded.to_json()) == structure(tree.to_json())
    assert loaded.children == tree.children
    # The tree file carries no item sets; the build checkpoint keeps them.
    assert loaded.nodes[rid].items == set()


def _two_level_payload():
    """A root, a child holding a and b, and a grandchild holding a, as
    (tree JSON, items per rule, grandchild id)."""
    tree = _tree()
    kid = tree.fresh_rule_id(tree.root_id, "kid")
    tree.add_child(tree.root_id, DescriptorNode(
        rule_id=kid, name="kid", description="d", parent=tree.root_id,
        depth=1, items={"a", "b"}))
    grand = tree.fresh_rule_id(kid, "grand")
    tree.add_child(kid, DescriptorNode(
        rule_id=grand, name="grand", description="d", parent=kid, depth=2,
        items={"a"}))
    items = {rid: sorted(node.items) for rid, node in tree.nodes.items()}
    return tree.to_json(), items, grand


@pytest.mark.parametrize("case, message", [
    ("items-exceed-parent", "subset"),
    ("wrong-depth", "depth"),
    ("missing-parent", "is not in the tree"),
    ("second-root", "parent None is not in the tree"),
    ("cycle", "is not in the tree"),
])
def test_from_json_rejects_what_add_child_rejects(case, message):
    payload, items, grand = _two_level_payload()
    nodes = payload["nodes"]
    assert set(VocabularyTree.from_json(payload, items).nodes) == set(items)
    if case == "items-exceed-parent":
        items[grand] = ["a", "c"]
    elif case == "wrong-depth":
        nodes[grand]["depth"] = 3
    elif case == "missing-parent":
        nodes[grand]["parent"] = make_rule_id("gone")
    elif case == "cycle":
        nodes[nodes[grand]["parent"]]["parent"] = grand
    else:
        nodes[make_rule_id("other root")] = nodes[payload["root"]] | {"name": "other"}
    with pytest.raises(VocabularyError, match=message):
        VocabularyTree.from_json(payload, items)


@pytest.mark.parametrize("name", ["first", "middle", "last"])
def test_from_json_names_the_node_whose_depth_is_wrong(name):
    # Three levels: one depth-1 node with three depth-2 children of two
    # leaves each. One depth-2 node claims depth 3; the loader reaches it at
    # level 2 through its parent, first, middle or last among its siblings,
    # and ``add_child`` rejects it there, whatever its declared depth.
    tree = _tree()
    kid = tree.fresh_rule_id(tree.root_id, "kid")
    tree.add_child(tree.root_id, DescriptorNode(
        rule_id=kid, name="kid", description="d", parent=tree.root_id,
        depth=1))
    grands = {}
    for grand_name in ("first", "middle", "last"):
        grand = grands[grand_name] = tree.fresh_rule_id(kid, grand_name)
        tree.add_child(kid, DescriptorNode(
            rule_id=grand, name=grand_name, description="d", parent=kid,
            depth=2))
        for leaf_name in ("x", "y"):
            tree.add_child(grand, DescriptorNode(
                rule_id=tree.fresh_rule_id(grand, leaf_name), name=leaf_name,
                description="d", parent=grand, depth=3))
    payload = tree.to_json()
    assert set(VocabularyTree.from_json(payload, {}).nodes) == set(payload["nodes"])
    wrong = grands[name]
    payload["nodes"][wrong]["depth"] = 3
    with pytest.raises(VocabularyError,
                       match=rf"^{wrong}: depth 3, but its parent {kid} "
                             r"is at depth 1$"):
        VocabularyTree.from_json(payload, {})


def test_build_config_validation():
    with pytest.raises(VocabularyError):
        BuildConfig(d_max=0)
    with pytest.raises(VocabularyError):
        BuildConfig(tau_split=1)
    with pytest.raises(VocabularyError):
        BuildConfig(coverage_break=0.0)
    with pytest.raises(VocabularyError):
        BuildConfig(branching_factor=-1)
    with pytest.raises(VocabularyError, match="parallelism"):
        BuildConfig(parallelism=0)


def test_build_config_json_leaves_out_parallelism():
    config = BuildConfig.from_json({"parallelism": 2, "seed": 3})
    assert config.parallelism == 2
    assert "parallelism" not in config.to_json()
    assert BuildConfig.from_json(config.to_json()) == BuildConfig(seed=3)


def test_build_config_rejects_unknown_keys():
    with pytest.raises(VocabularyError, match="tau_splitt"):
        BuildConfig.from_json({"tau_splitt": 40})


def test_anomaly_threshold_floor_and_fraction():
    config = BuildConfig()
    assert config.anomaly_threshold(100) == 20   # floor dominates
    assert config.anomaly_threshold(1000) == 50  # 5% dominates
    assert BuildConfig(tau_anom=7).anomaly_threshold(1000) == 7
