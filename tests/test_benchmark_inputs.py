"""The benchmark writes its inputs through the package (``perfbench/worlds.py``
calls ``VocabularyTree.save``, ``export_semids``, ``write_splits`` and the
rest). The benchmark's own tests are not in this suite, so this builds each
workload's inputs on the small worlds of the same shape: a package change
that breaks the benchmark's set-up fails here."""

from __future__ import annotations

from tagforge.assignment import SemidTable
from tagforge.corpus import read_splits
from tagforge.vocab import VocabularyTree

from conftest import load_perfbench


def test_every_workload_builds_its_inputs(tmp_path):
    worlds = load_perfbench("worlds")
    demo = worlds.make_demo(tmp_path / "demo", worlds.TINY_DEMO, 7)
    assert demo["items"] == worlds.TINY_DEMO.items
    for make in (worlds.make_sports_assign, worlds.make_sports_decode):
        data = tmp_path / make.__name__
        info = make(data, worlds.TINY_SPORTS, 7, 2)
        assert info["items"] == worlds.TINY_SPORTS.items
        tree = VocabularyTree.load(data / "vocab.json")
        assert len(tree.descriptor_nodes()) == 3 + 9 + 27
    decode = tmp_path / "make_sports_decode"
    table = SemidTable.load(decode / "semids.jsonl", decode / "token_map.json")
    assert len(table.rows) == worlds.TINY_SPORTS.items
    assert read_splits(decode / "splits.jsonl").test
