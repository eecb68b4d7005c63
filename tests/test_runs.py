from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from tagforge.runs import (RunDirError, RunLock, RunPaths, decode_line,
                           inputs_hash, read_jsonl, write_jsonl)


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


RACE_WORKERS = 4
RACE_ROUNDS = 20
RACE_HOLD_S = 0.01


def _race_for_the_lock(root, dead_pid, barrier, holds) -> None:
    """Each round, rewrite a leftover ``.lock`` naming ``dead_pid``, release
    every worker at once to take the lock, and record the (start, end) of
    each hold won; the holds go to ``holds`` as one list."""
    paths = RunPaths(root)
    mine = []
    for _ in range(RACE_ROUNDS):
        if barrier.wait(timeout=30) == 0:
            paths.lock.write_text(str(dead_pid))
        barrier.wait(timeout=30)
        try:
            with RunLock(paths):
                start = time.monotonic()
                time.sleep(RACE_HOLD_S)
                mine.append((start, time.monotonic()))
        except RunDirError:
            pass
        barrier.wait(timeout=30)
    holds.put(mine)


def test_writers_released_together_never_hold_the_lock_at_once(tmp_path):
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait(timeout=30)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(RACE_WORKERS)
    holds = ctx.Queue()
    workers = [ctx.Process(target=_race_for_the_lock,
                           args=(tmp_path, dead.pid, barrier, holds))
               for _ in range(RACE_WORKERS)]
    for worker in workers:
        worker.start()
    try:
        intervals = sorted(hold for _ in workers for hold in holds.get(timeout=60))
    finally:
        for worker in workers:
            worker.join(timeout=30)
            worker.kill()
    assert [worker.exitcode for worker in workers] == [0] * RACE_WORKERS
    # Every round has a winner, and no hold starts before the last one ended.
    assert len(intervals) >= RACE_ROUNDS
    overlaps = [(a, b) for a, b in zip(intervals, intervals[1:]) if b[0] < a[1]]
    assert overlaps == []


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


# JSON values as run files hold them, NaN and the infinities included, each
# written as json.dumps writes it.
_JSON_CHARS = 'ab {}[]"\\:,\t`é'
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=_JSON_CHARS, max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(alphabet=_JSON_CHARS, max_size=4),
                                        children, max_size=3)),
    max_leaves=8)
# JSON whitespace, whitespace JSON does not allow, and a byte order mark.
_SPACE = " \t\r\n\x0b\x0c\xa0\u2003\ufeff"


def _outcome(parse, line: str):
    """The value as JSON text, so that 1, 1.0 and true stay apart and NaN
    equals NaN, or the JSONDecodeError."""
    try:
        return json.dumps(parse(line))
    except json.JSONDecodeError:
        return json.JSONDecodeError


@settings(max_examples=300, deadline=None)
@given(lead=st.text(alphabet=_SPACE, max_size=2),
       values=st.lists(st.builds(json.dumps, _json_values), min_size=1, max_size=2),
       gap=st.text(alphabet=_SPACE, max_size=2),
       garbage=st.sampled_from(["", "x", "}", ",", "NaN", "1", "// c"]),
       trail=st.text(alphabet=_SPACE, max_size=2))
def test_decode_line_matches_json_loads(lead, values, gap, garbage, trail):
    # Surrounding whitespace, a second value on the line, trailing garbage.
    line = (lead + gap.join(values) + garbage + trail).strip()
    assert _outcome(decode_line, line) == _outcome(json.loads, line)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='{}[]"\\:,0-1.eE tfnulNaIiy\ufeffx', max_size=24))
def test_decode_line_matches_json_loads_on_any_text(raw):
    line = raw.strip()
    assert _outcome(decode_line, line) == _outcome(json.loads, line)
