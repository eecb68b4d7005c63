from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from tagforge.corpus import (Corpus, CorpusError, IngestReport, Interaction, Item,
                             last_out_split, load_corpus, load_interactions,
                             read_splits, write_corpus, write_splits)

from oracles import reference_splits_text


def _write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_load_corpus_identity(tmp_path):
    path = _write_jsonl(tmp_path / "items.jsonl", [
        {"item_id": "a", "title": "one", "body": "x"},
        {"item_id": "b", "title": "two", "body": "y"},
        {"item_id": "c", "title": "three", "body": "z"},
    ])
    corpus = load_corpus(path)
    assert len(corpus) == 3
    for item_id in ("a", "b", "c"):
        assert corpus.get(item_id).item_id == item_id
    assert corpus.item_ids == ["a", "b", "c"]


def test_load_corpus_duplicate_id_names_id_and_line(tmp_path):
    path = _write_jsonl(tmp_path / "items.jsonl", [
        {"item_id": "a", "title": "one"},
        {"item_id": "a", "title": "again"},
    ])
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert "'a'" in str(err.value)
    assert ":2" in str(err.value)


def test_load_corpus_lenient_counts_malformed(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text('{"item_id": "a", "title": "t"}\nnot json\n'
                    '{"title": "missing id"}\n{"item_id": "b", "body": "y"}\n')
    report = IngestReport()
    corpus = load_corpus(path, lenient=True, report=report)
    assert len(corpus) == 2
    assert report.malformed_lines == 2
    with pytest.raises(CorpusError):
        load_corpus(path)


@pytest.mark.parametrize("tail", [" x", '{"item_id": "c", "title": "t"}'])
def test_load_corpus_rejects_data_after_the_value(tmp_path, tail):
    path = tmp_path / "items.jsonl"
    path.write_text('{"item_id": "a", "title": "t"}\n'
                    '{"item_id": "b", "title": "t"}' + tail + "\n")
    with pytest.raises(CorpusError, match=r"items\.jsonl:2: Extra data"):
        load_corpus(path)
    report = IngestReport()
    assert load_corpus(path, lenient=True, report=report).item_ids == ["a"]
    assert report.malformed_lines == 1


@pytest.mark.parametrize("tail", [" x", '{"user_id": "u", "item_id": "a", "timestamp": 2}'])
def test_load_interactions_rejects_data_after_the_value(tmp_path, tail):
    path = tmp_path / "inter.jsonl"
    path.write_text('{"user_id": "u", "item_id": "a", "timestamp": 1}\n\n'
                    '{"user_id": "u", "item_id": "b", "timestamp": 3}' + tail + "\n")
    with pytest.raises(CorpusError, match=r"inter\.jsonl:3: Extra data"):
        load_interactions(path)


def test_load_corpus_zero_items_is_error(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text("\n\n")
    with pytest.raises(CorpusError, match="zero valid items"):
        load_corpus(path)


def test_corpus_round_trip(tmp_path):
    path = _write_jsonl(tmp_path / "items.jsonl", [
        {"item_id": "a", "title": "one", "body": "x", "extras": {"k": "v"}},
        {"item_id": "b", "title": "", "body": "y"},
    ])
    corpus = load_corpus(path)
    out = tmp_path / "copy.jsonl"
    write_corpus(corpus, out)
    again = load_corpus(out)
    assert [i.item_id for i in again] == [i.item_id for i in corpus]
    assert [i.title for i in again] == [i.title for i in corpus]
    assert [i.extras for i in again] == [i.extras for i in corpus]


def test_paper_scale_sports_counts(tmp_path):
    # Table sizes for the Sports domain: 18,357 items, 260,739 interactions.
    items_path = tmp_path / "items.jsonl"
    with items_path.open("w") as fh:
        for i in range(18_357):
            fh.write(json.dumps({"item_id": f"i{i}", "title": f"t{i}"}) + "\n")
    corpus = load_corpus(items_path)
    assert len(corpus) == 18_357

    inter_path = tmp_path / "inter.jsonl"
    rng = random.Random(0)
    with inter_path.open("w") as fh:
        for k in range(260_739):
            fh.write(json.dumps({"user_id": f"u{k % 35_598}",
                                 "item_id": f"i{rng.randrange(18_357)}",
                                 "timestamp": k}) + "\n")
    records = load_interactions(inter_path, corpus)
    assert len(records) == 260_739


def test_load_interactions_empty_file(tmp_path):
    path = tmp_path / "inter.jsonl"
    path.write_text("")
    assert load_interactions(path) == []


def test_load_interactions_sorted_by_time(tmp_path):
    path = _write_jsonl(tmp_path / "inter.jsonl", [
        {"user_id": "u", "item_id": "a", "timestamp": 5},
        {"user_id": "u", "item_id": "b", "timestamp": 3},
    ])
    records = load_interactions(path)
    assert [r.timestamp for r in records] == [3, 5]
    assert [r.item_id for r in records] == ["b", "a"]


def test_load_interactions_unknown_item_strict_vs_lenient(tmp_path):
    items = _write_jsonl(tmp_path / "items.jsonl",
                         [{"item_id": "a", "title": "t"}])
    corpus = load_corpus(items)
    path = _write_jsonl(tmp_path / "inter.jsonl", [
        {"user_id": "u", "item_id": "a", "timestamp": 1},
        {"user_id": "u", "item_id": "ghost", "timestamp": 2},
    ])
    with pytest.raises(CorpusError, match="ghost"):
        load_interactions(path, corpus)
    report = IngestReport()
    records = load_interactions(path, corpus, strict=False, report=report)
    assert len(records) == 1
    assert report.unknown_items == 1


def test_load_interactions_memory_per_row(tmp_path):
    # 50k rows over 5k users and 2k items, with Unix-second timestamps as in
    # the Amazon logs. The bound is per row of the traced peak, the corpus
    # excluded: one slotted record per row, with shared user and item id
    # strings, stays well under it; a second list of per-row tuples or key
    # tuples alive beside the records does not.
    rng = random.Random(11)
    corpus = Corpus([Item(item_id=f"item-{i:05d}", title=f"t{i}") for i in range(2000)])
    n_rows = 50_000
    path = _write_jsonl(tmp_path / "inter.jsonl", (
        {"user_id": f"user-{rng.randrange(5000):05d}",
         "item_id": f"item-{rng.randrange(2000):05d}",
         "timestamp": 1_300_000_000 + rng.randrange(100_000_000)}
        for _ in range(n_rows)))
    tracemalloc.start()
    try:
        records = load_interactions(path, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == n_rows
    assert peak / n_rows < 180, f"{peak / n_rows:.1f} B/row"


def test_interaction_is_slotted():
    record = Interaction("u", "a", 1)
    assert Interaction.__slots__ == ("user_id", "item_id", "timestamp")
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_last_out_split_definition():
    records = [Interaction("u", x, t) for t, x in
               enumerate(["a", "b", "c", "d"])]
    split = last_out_split(records)
    assert split.train["u"] == ["a", "b"]
    assert split.valid["u"] == "c"
    assert split.test["u"] == "d"


def test_last_out_split_excludes_short_users():
    records = [Interaction("u", "a", 1), Interaction("u", "b", 2)]
    report = IngestReport()
    split = last_out_split(records, report)
    assert "u" not in split.train
    assert report.excluded_users == 1


def test_last_out_split_ties_keep_input_order(tmp_path):
    path = _write_jsonl(tmp_path / "inter.jsonl", [
        {"user_id": "u", "item_id": x, "timestamp": 7} for x in "abc"
    ])
    split = last_out_split(load_interactions(path))
    assert split.train["u"] == ["a"]
    assert split.valid["u"] == "b"
    assert split.test["u"] == "c"


def test_last_out_split_against_brute_force_resort(tmp_path):
    # 100 users x 5 items with random timestamps, checked per user against
    # an independent stable re-sort.
    rng = random.Random(42)
    rows = []
    for u in range(100):
        for j in range(5):
            rows.append({"user_id": f"u{u:03d}", "item_id": f"i{u}_{j}",
                         "timestamp": rng.randrange(50)})
    rng.shuffle(rows)
    path = _write_jsonl(tmp_path / "inter.jsonl", rows)
    records = load_interactions(path)
    split = last_out_split(records)

    expected: dict[str, list[tuple[int, int, str]]] = {}
    for pos, row in enumerate(rows):
        expected.setdefault(row["user_id"], []).append(
            (row["timestamp"], pos, row["item_id"]))
    for user, seq in expected.items():
        ordered = [item for _, _, item in sorted(seq)]
        assert split.test[user] == ordered[-1]
        assert split.valid[user] == ordered[-2]
        assert split.train[user] == ordered[:-2]
        # Union over splits reproduces the user's input multiset.
        assert sorted(split.train[user] + [split.valid[user], split.test[user]]) \
            == sorted(item for _, _, item in seq)


def test_splits_round_trip(tmp_path):
    records = [Interaction("u1", x, t) for t, x in enumerate("abcd")]
    records += [Interaction("u2", x, t) for t, x in enumerate("xyz")]
    split = last_out_split(sorted(records, key=lambda r: (r.user_id, r.timestamp)))
    path = tmp_path / "splits.jsonl"
    write_splits(split, path)
    again = read_splits(path)
    assert again.train == split.train
    assert again.valid == split.valid
    assert again.test == split.test


def test_write_splits_is_byte_equal_to_per_row_json_dumps(tmp_path):
    users = ['u"1"', "ü-2", "u\\3", "東京", "u\n5", "plain"]
    items = ['it"em', "é", "a\\b", "🎯", "x\ty", "i"]
    rng = random.Random(3)
    records = [Interaction(user, rng.choice(items), t)
               for user in users for t in range(rng.randint(3, 7))]
    split = last_out_split(records)
    path = tmp_path / "splits.jsonl"
    write_splits(split, path)
    assert path.read_bytes() == reference_splits_text(split).encode("utf-8")
    assert read_splits(path).train == split.train
