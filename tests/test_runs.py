from __future__ import annotations

import pytest

from tagforge.runs import read_jsonl, write_jsonl


def test_jsonl_round_trip_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, ({"n": i} for i in range(3)))
    path.write_text(path.read_text() + "\n  \n")
    assert list(read_jsonl(path)) == [{"n": 0}, {"n": 1}, {"n": 2}]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"n": 1}, {"n": 2}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # The second row cannot be encoded: the write fails midway.
        write_jsonl(path, [{"n": 3}, {"n": object()}])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
