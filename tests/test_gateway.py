from __future__ import annotations

import json

import pytest

from tagforge.gateway import (AgentRole, BudgetExhaustedError, CallLedger,
                              Gateway, HttpBackend,
                              TransientBackendError, TransportExhaustedError,
                              fan_out)
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import make_world
from tagforge.protocol import ProtocolError, parse_keywords

from conftest import make_gateway


class FlakyBackend:
    """Fails with transient errors n times, then echoes."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("HTTP 503")
        return f"ok:{len(prompt)}"


def _gateway(backend, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    return Gateway({AgentRole.ANNOTATOR: backend,
                    AgentRole.ARCHITECT: backend}, **kwargs)


def test_mock_backend_is_deterministic():
    world = make_world(branching=(3,), n_items=30, seed=1)
    backend = MockLLMBackend(world.taxonomy, seed=4)
    prompt = "You are simulating a user browsing a catalog. The user wants " \
             "the following item next:\n- [x] " \
             + " ".join(world.true_path["item00000"]) + \
             "\n\nThe catalog organizes items under these top-level sections:\n" \
             + "\n".join(f"- {n}" for n in world.taxonomy.level1) + "\n"
    assert backend.generate(prompt) == backend.generate(prompt)


def test_retries_then_success_recorded():
    backend = FlakyBackend(failures=2)
    gateway = _gateway(backend, max_retries=3)
    out = gateway.complete(AgentRole.ANNOTATOR, "hello", "AssignItem")
    assert out == "ok:5"
    assert gateway.ledger.retries(AgentRole.ANNOTATOR, "AssignItem") == 2
    assert gateway.ledger.calls(AgentRole.ANNOTATOR, "AssignItem") == 1


def test_transport_exhausted_after_max_retries():
    backend = FlakyBackend(failures=10)
    gateway = _gateway(backend, max_retries=3)
    with pytest.raises(TransportExhaustedError):
        gateway.complete(AgentRole.ANNOTATOR, "hello", "AssignItem")
    assert gateway.ledger.retries() == 4  # initial + 3 retries all failed
    assert gateway.ledger.calls() == 0


def test_budget_guard_blocks_call_past_limit():
    backend = FlakyBackend(failures=0)
    gateway = _gateway(backend, max_calls=10)
    for _ in range(10):
        gateway.complete(AgentRole.ANNOTATOR, "p", "AssignItem")
    with pytest.raises(BudgetExhaustedError):
        gateway.complete(AgentRole.ANNOTATOR, "p", "AssignItem")
    assert gateway.ledger.calls() == 10


def test_ledger_counts_match_invocations():
    world = make_world(branching=(2,), n_items=20, seed=2)
    gateway = make_gateway(world)
    for i in range(7):
        gateway.complete(AgentRole.ANNOTATOR, f"prompt {i}", "AssignItem")
    for i in range(3):
        gateway.complete(AgentRole.ARCHITECT, f"review {i}", "ArchitectReview")
    assert gateway.ledger.calls(AgentRole.ANNOTATOR, "AssignItem") == 7
    assert gateway.ledger.calls(AgentRole.ARCHITECT, "ArchitectReview") == 3
    assert gateway.ledger.calls() == 10


def test_complete_parsed_reasks_then_fails():
    class BadJson:
        def __init__(self):
            self.calls = 0

        def generate(self, prompt):
            self.calls += 1
            return "definitely not json"

    backend = BadJson()
    gateway = _gateway(backend)
    with pytest.raises(ProtocolError, match="re-asks"):
        gateway.complete_parsed(AgentRole.ANNOTATOR, "p", "FreeformTag",
                                parse_keywords)
    assert backend.calls == 3  # initial ask + 2 re-asks


def test_complete_parsed_recovers_on_reask():
    class EventuallyGood:
        def __init__(self):
            self.calls = 0

        def generate(self, prompt):
            self.calls += 1
            if self.calls == 1:
                return "oops"
            assert "REMINDER" in prompt
            return '{"keywords": ["a"]}'

    gateway = _gateway(EventuallyGood())
    assert gateway.complete_parsed(AgentRole.ANNOTATOR, "p", "FreeformTag",
                                   parse_keywords) == ["a"]


def test_no_backend_for_role():
    gateway = Gateway({AgentRole.ANNOTATOR: FlakyBackend(0)})
    with pytest.raises(Exception, match="no backend"):
        gateway.complete(AgentRole.ARCHITECT, "p", "ArchitectReview")


def test_transcript_written(tmp_path):
    backend = FlakyBackend(failures=0)
    path = tmp_path / "transcript.jsonl"
    gateway = _gateway(backend, transcript_path=path)
    gateway.complete(AgentRole.ANNOTATOR, "hello", "AssignItem")
    gateway.close()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["role"] == "annotator"
    assert rows[0]["template_id"] == "AssignItem"
    assert len(rows[0]["prompt_hash"]) == 12
    assert rows[0]["response"] == "ok:5"


def test_transcript_line_on_disk_when_complete_returns(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = _gateway(FlakyBackend(failures=0), transcript_path=path)
    for n in range(1, 4):
        gateway.complete(AgentRole.ANNOTATOR, f"prompt {n}", "AssignItem")
        # Read through a handle of its own, with the gateway still open.
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == n
        assert rows[-1]["response"] == f"ok:{len(f'prompt {n}')}"
    gateway.close()
    gateway.close()
    assert len(path.read_text().splitlines()) == 3
    # A call after close appends to the same file.
    gateway.complete(AgentRole.ANNOTATOR, "again", "AssignItem")
    gateway.close()
    assert len(path.read_text().splitlines()) == 4


def test_transcript_keeps_every_line_under_concurrent_calls(tmp_path):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "transcript.jsonl"
    gateway = _gateway(FlakyBackend(failures=0), transcript_path=path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            fan_out(pool, lambda n: gateway.complete(
                AgentRole.ANNOTATOR, "x" * n, "AssignItem"), range(1, 401))
    finally:
        sys.setswitchinterval(interval)
        gateway.close()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert sorted(row["response"] for row in rows) == \
        sorted(f"ok:{n}" for n in range(1, 401))


def test_parallelism_caps_calls_in_flight():
    import threading
    import time

    from tagforge.freeform import generate_freeform

    class SlowBackend:
        def __init__(self, inner):
            self.inner = inner
            self.lock = threading.Lock()
            self.active = 0
            self.peak = 0

        def generate(self, prompt):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.02)
            with self.lock:
                self.active -= 1
            return self.inner.generate(prompt)

    world = make_world(branching=(3,), n_items=24, seed=1)
    backend = SlowBackend(MockLLMBackend(world.taxonomy, seed=0))
    gateway = _gateway(backend)
    table = generate_freeform(world.corpus, gateway, parallelism=3)
    assert table.n_failed_items == 0
    assert backend.peak == 3
    assert gateway.ledger.calls() == 24


def test_fan_out_keeps_item_order_and_per_item_failures():
    from concurrent.futures import ThreadPoolExecutor

    def work(i):
        if i == 2:
            raise TransportExhaustedError("down")
        if i == 4:
            raise ProtocolError("garbled")
        return i * 10

    with ThreadPoolExecutor(max_workers=3) as pool:
        results = fan_out(pool, work, range(6))
    assert [r if isinstance(r, int) else str(r) for r in results] == \
        [0, 10, "down", 30, "garbled", 50]


def test_fan_out_raises_budget_after_every_item_finished():
    import threading
    from concurrent.futures import ThreadPoolExecutor

    done = []
    lock = threading.Lock()

    def work(i):
        if i == 0:
            raise BudgetExhaustedError("spent")
        with lock:
            done.append(i)
        return i

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(BudgetExhaustedError, match="spent"):
            fan_out(pool, work, range(8))
        assert sorted(done) == list(range(1, 8))


def test_ledger_save_load_round_trip(tmp_path):
    ledger = CallLedger()
    ledger.record_call(AgentRole.ANNOTATOR, "AssignItem", "pp", "rr")
    ledger.record_retry(AgentRole.ANNOTATOR, "AssignItem")
    path = tmp_path / "ledger.jsonl"
    ledger.save_jsonl(path)
    fresh = CallLedger()
    fresh.load_jsonl(path)
    assert fresh.snapshot() == ledger.snapshot()


def test_http_backend_request_and_parse(monkeypatch):
    captured = {}

    class FakeResponse:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"content": "reply!"}}]}

    class FakeSession:
        def post(self, url, json=None, headers=None, timeout=None):
            captured.update(url=url, body=json, headers=headers)
            return FakeResponse()

    monkeypatch.setenv("MY_KEY", "sekret")
    backend = HttpBackend("http://example.invalid/v1/chat", "modelx",
                          auth_env="MY_KEY", temperature=0.25, session=FakeSession())
    out = backend.generate("hi there")
    assert out == "reply!"
    assert captured["body"]["model"] == "modelx"
    assert captured["body"]["messages"] == [{"role": "user", "content": "hi there"}]
    assert captured["body"]["temperature"] == 0.25
    assert captured["headers"]["Authorization"] == "Bearer sekret"


def test_http_backend_5xx_is_transient():
    class FakeResponse:
        status_code = 502
        text = "bad gateway"

        def json(self):
            return {}

    class FakeSession:
        def post(self, *args, **kwargs):
            return FakeResponse()

    backend = HttpBackend("http://example.invalid", "m", session=FakeSession())
    with pytest.raises(TransientBackendError):
        backend.generate("x")
