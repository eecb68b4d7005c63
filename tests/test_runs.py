from __future__ import annotations

import hashlib
import random

import pytest

from tagforge.runs import inputs_hash, read_jsonl, write_jsonl


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


def test_inputs_hash_streams_files_to_the_same_digest(tmp_path):
    # 2.5 MiB spans more than one read chunk; a missing path hashes its name.
    big = tmp_path / "big.bin"
    big.write_bytes(random.Random(5).randbytes(5 * 2**19 + 17))
    missing = tmp_path / "missing.jsonl"
    expected = hashlib.sha256()
    expected.update(str(big).encode() + big.read_bytes() + b"\x00")
    expected.update(b'{"k": 1}' + b"\x00")
    expected.update(str(missing).encode() + b"\x00")
    assert inputs_hash(big, {"k": 1}, missing) == expected.hexdigest()
