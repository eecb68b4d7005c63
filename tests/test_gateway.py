from __future__ import annotations

import json
import socket
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from tagforge.gateway import (AgentRole, BackendRefusalError,
                              BudgetExhaustedError, CallLedger, Gateway,
                              HttpBackend, TransientBackendError,
                              TransportExhaustedError, fan_out)
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import make_world
from tagforge.protocol import ProtocolError, parse_keywords

from conftest import FaultBackend, make_gateway


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
    assert gateway.ledger.snapshot()["annotator/AssignItem"]["retries"] == 2
    assert gateway.ledger.calls(AgentRole.ANNOTATOR, "AssignItem") == 1


def test_transport_exhausted_after_max_retries():
    backend = FlakyBackend(failures=10)
    gateway = _gateway(backend, max_retries=3)
    with pytest.raises(TransportExhaustedError):
        gateway.complete(AgentRole.ANNOTATOR, "hello", "AssignItem")
    # initial + 3 retries all failed
    assert sum(row["retries"] for row in gateway.ledger.snapshot().values()) == 4
    assert gateway.ledger.calls() == 0


def test_budget_guard_blocks_call_past_limit():
    backend = FlakyBackend(failures=0)
    gateway = _gateway(backend, max_calls=10)
    for _ in range(10):
        gateway.complete(AgentRole.ANNOTATOR, "p", "AssignItem")
    with pytest.raises(BudgetExhaustedError):
        gateway.complete(AgentRole.ANNOTATOR, "p", "AssignItem")
    assert gateway.ledger.calls() == 10


def test_budget_admits_exactly_max_calls_across_threads():
    class CountingBackend:
        def __init__(self):
            self.calls = []  # list.append is atomic under the GIL

        def generate(self, prompt):
            self.calls.append(prompt)
            time.sleep(0.0001)  # waits like a network call, other threads run
            return "ok"

    backend = CountingBackend()
    gateway = _gateway(backend, max_calls=100)
    denied = []

    def worker(w):
        for i in range(50):
            try:
                gateway.complete(AgentRole.ANNOTATOR, f"{w}:{i}", "AssignItem")
            except BudgetExhaustedError as exc:
                denied.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(backend.calls) == 100
    assert gateway.ledger.calls() == 100
    assert len(denied) == 100


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


class CannedBackend:
    """Answers every prompt with the next of ``responses``."""

    def __init__(self, responses):
        self.responses = iter(responses)

    def generate(self, prompt):
        return next(self.responses)


_TRANSCRIPT_KEYS = ["role", "template_id", "prompt_hash", "response", "latency_ms"]


def _transcript_lines(tmp_path, responses, template_id="AssignItem"):
    path = tmp_path / "transcript.jsonl"
    path.unlink(missing_ok=True)
    gateway = _gateway(CannedBackend(responses), transcript_path=path)
    for n, _ in enumerate(responses):
        gateway.complete(AgentRole.ANNOTATOR, f"prompt é {n}", template_id)
    gateway.close()
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n")
    # Lines end at "\n" only; str.splitlines would also cut at U+2028.
    return [line + "\n" for line in text.split("\n")[:-1]]


def _assert_json_dumps_lines(lines, responses, template_id):
    assert len(lines) == len(responses)
    for line, response in zip(lines, responses):
        row = json.loads(line)
        assert list(row) == _TRANSCRIPT_KEYS
        assert line == json.dumps(row, ensure_ascii=False) + "\n"
        assert row["response"] == response
        assert row["template_id"] == template_id
        assert isinstance(row["latency_ms"], float) and row["latency_ms"] >= 0


def test_transcript_lines_are_json_dumps_of_the_row(tmp_path):
    responses = ['{"best_rule_id": "rule_0123abcd"}', "naïve café — 東京 🎯",
                 'say "hi" \\ back\\slash', "two\nlines\r\n\ttab",
                 "".join(map(chr, range(32))) + "\x7f\u2028\u2029", ""]
    template_id = 'Odd "template" é\n'
    _assert_json_dumps_lines(_transcript_lines(tmp_path, responses, template_id),
                             responses, template_id)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(max_size=20), min_size=1, max_size=5))
def test_transcript_lines_are_json_dumps_of_any_response(tmp_path_factory, responses):
    tmp_path = tmp_path_factory.mktemp("transcript")
    _assert_json_dumps_lines(_transcript_lines(tmp_path, responses), responses,
                             "AssignItem")


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
                AgentRole.ANNOTATOR, "x" * n, "AssignItem"), range(1, 401),
                width=400)
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
        if i == 5:
            raise BackendRefusalError("refused")
        return i * 10

    with ThreadPoolExecutor(max_workers=3) as pool:
        results = fan_out(pool, work, range(7), width=7)
    assert [r if isinstance(r, int) else str(r) for r in results] == \
        [0, 10, "down", 30, "garbled", "refused", 60]


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
            fan_out(pool, work, range(8), width=8)
        assert sorted(done) == list(range(1, 8))


@pytest.mark.parametrize("width, n_items", [(3, 9), (8, 5), (1, 4), (2, 0)])
def test_fan_out_submits_one_worker_per_slot(width, n_items):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    class CountingPool(ThreadPoolExecutor):
        submitted = 0

        def submit(self, fn, /, *args, **kwargs):
            self.submitted += 1
            return super().submit(fn, *args, **kwargs)

    finished = []
    lock = threading.Lock()

    def work(i):
        time.sleep(0.001 * (i % 3))  # uneven latencies
        with lock:
            finished.append(i)
        if i == 1:
            raise TransportExhaustedError("down")
        if i == 2:
            raise BackendRefusalError("refused")
        if i == 3:
            raise ProtocolError("garbled")
        return i * 10

    errors = {1: "down", 2: "refused", 3: "garbled"}
    with CountingPool(max_workers=width) as pool:
        results = fan_out(pool, work, range(n_items), width=width)
        assert pool.submitted == min(width, n_items)
    assert [str(r) if i in errors else r for i, r in enumerate(results)] == \
        [errors.get(i, i * 10) for i in range(n_items)]
    assert sorted(finished) == list(range(n_items))

    def spent(i):
        with lock:
            finished.append(i)
        if i == 0:
            raise BudgetExhaustedError("spent")
        return i

    finished.clear()
    with CountingPool(max_workers=width) as pool:
        if n_items:
            with pytest.raises(BudgetExhaustedError, match="spent"):
                fan_out(pool, spent, range(n_items), width=width)
        assert sorted(finished) == list(range(n_items))
        assert pool.submitted == min(width, n_items)


def test_ledger_save_load_round_trip(tmp_path):
    ledger = CallLedger()
    ledger.record_call(AgentRole.ANNOTATOR, "AssignItem", "pp", "rr")
    ledger.record_retry(AgentRole.ANNOTATOR, "AssignItem")
    path = tmp_path / "ledger.jsonl"
    ledger.save_jsonl(path)
    fresh = CallLedger()
    fresh.load_jsonl(path)
    assert fresh.snapshot() == ledger.snapshot()


def test_ledger_totals_are_exact_under_thread_switches(tmp_path):
    """Eight writers record on three keys while a reader merges a saved
    ledger and then reads; with a 1 us switch interval the totals still
    count every call and retry."""
    ledger = CallLedger()
    saved = tmp_path / "ledger.jsonl"
    ledger.record_call(AgentRole.ARCHITECT, "Seed", "p" * 8, "")
    ledger.save_jsonl(saved)
    templates = ("AssignItem", "ErrorFeedback", "ArchitectReview")
    n_threads, n_calls = 8, 4000
    stop = threading.Event()
    snapshots = []

    def write(k):
        for i in range(n_calls):
            template = templates[(k + i) % len(templates)]
            ledger.record_call(AgentRole.ANNOTATOR, template, "p" * 12, "r" * 4)
            if i % 3 == 0:
                ledger.record_retry(AgentRole.ANNOTATOR, template)

    def read():
        ledger.load_jsonl(saved)
        while not stop.is_set():
            snapshots.append(ledger.calls())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(k,))
                   for k in range(n_threads)]
        for thread in writers:
            thread.start()
        reader.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + [reader])
    assert snapshots == sorted(snapshots)
    total = n_threads * n_calls
    assert ledger.calls(AgentRole.ANNOTATOR) == total
    assert sum(row["retries"] for row in ledger.snapshot().values()) \
        == n_threads * len(range(0, n_calls, 3))
    assert ledger.calls(AgentRole.ARCHITECT, "Seed") == 2
    assert sum(row["token_estimate"] for row in ledger.snapshot().values()) \
        == total * 4 + 2 * 2


def test_recording_a_call_never_waits_for_a_reader():
    ledger = CallLedger()
    ledger.record_call(AgentRole.ANNOTATOR, "AssignItem", "p", "r")
    recorder = threading.Thread(target=lambda: [ledger.record_call(
        AgentRole.ANNOTATOR, "AssignItem", "p", "r") for _ in range(3)])
    with ledger._lock:  # a reader or another fold holds the counters
        recorder.start()
        recorder.join(timeout=10)
        assert not recorder.is_alive()
    assert ledger.calls() == 4
    assert not ledger._queued


class _LLMHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``status`` and ``reply`` after
    ``delay`` seconds, and keeps each request in ``seen``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append({"path": self.path, "headers": dict(self.headers),
                                 "body": json.loads(body)})
        time.sleep(self.server.delay)
        try:
            self.send_response(self.server.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(self.server.reply)))
            self.end_headers()
            self.wfile.write(self.server.reply)
        except OSError:  # the client stopped waiting
            pass

    def log_message(self, *args):
        pass


@pytest.fixture()
def llm_server():
    """A chat endpoint on a loopback port; tests set ``status``, ``reply``
    and ``delay`` on it before they call."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LLMHandler)
    server.status, server.reply, server.delay, server.seen = 200, b"{}", 0.0, []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _http_backend(port: int, **kwargs) -> HttpBackend:
    # No proxy from the environment may stand between the test and loopback.
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    return HttpBackend(f"http://127.0.0.1:{port}/v1/chat", "modelx",
                       opener=opener, **kwargs)


def test_http_backend_request_and_parse(monkeypatch, llm_server):
    llm_server.reply = b'{"choices": [{"message": {"content": "reply!"}}]}'
    monkeypatch.setenv("MY_KEY", "sekret")
    backend = _http_backend(llm_server.server_port, auth_env="MY_KEY",
                            temperature=0.25)
    assert backend.generate("hi there") == "reply!"
    (request,) = llm_server.seen
    assert request["path"] == "/v1/chat"
    assert request["headers"]["Authorization"] == "Bearer sekret"
    assert request["headers"]["Content-Type"] == "application/json"
    assert request["body"] == {"model": "modelx", "temperature": 0.25,
                               "messages": [{"role": "user", "content": "hi there"}]}


def test_http_backend_reads_the_candidates_layout(llm_server):
    llm_server.reply = b'{"candidates": [{"content": {"parts": [{"text": "reply!"}]}}]}'
    assert _http_backend(llm_server.server_port).generate("x") == "reply!"


def test_http_backend_sends_no_header_without_credential(monkeypatch, llm_server):
    llm_server.reply = b'{"text": "plain"}'
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    assert _http_backend(llm_server.server_port).generate("x") == "plain"
    assert "Authorization" not in llm_server.seen[0]["headers"]


@pytest.mark.parametrize("status", [502, 429, 408])
def test_http_backend_5xx_is_transient(llm_server, status):
    # A server error, a rate limit and a request timeout are retried.
    llm_server.status, llm_server.reply = status, b'{"error": "try again"}'
    with pytest.raises(TransientBackendError, match=f"HTTP {status}"):
        _http_backend(llm_server.server_port).generate("x")


def test_http_backend_400_is_a_refusal(llm_server):
    llm_server.status, llm_server.reply = 400, b'{"error": "bad request"}'
    with pytest.raises(BackendRefusalError, match="HTTP 400: .*bad request"):
        _http_backend(llm_server.server_port).generate("x")


@pytest.mark.parametrize("reply", [b"<html>busy</html>", b'["reply!"]',
                                   b'{"choices": ["reply!"]}', b"{}"])
def test_http_backend_garbage_reply_is_a_refusal(llm_server, reply):
    # A 2xx body that is not JSON, or holds no candidate text, is refused,
    # so that it fails only its own item of a batch.
    llm_server.reply = reply
    with pytest.raises(BackendRefusalError):
        _http_backend(llm_server.server_port).generate("x")


def test_http_backend_closed_port_is_transient():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransientBackendError):
        _http_backend(port).generate("x")


def test_http_backend_read_timeout_is_transient(llm_server):
    llm_server.delay = 1.0
    with pytest.raises(TransientBackendError, match="timed out"):
        _http_backend(llm_server.server_port, timeout=0.1).generate("x")


def test_a_refusal_fails_only_its_own_item_in_every_batch():
    from tagforge.assignment import assign_paths
    from tagforge.freeform import generate_freeform
    from tagforge.mockllm import category_description
    from tagforge.refinement import parallel_assign
    from tagforge.vocab import DescriptorNode, VocabularyTree

    world = make_world(branching=(3,), n_items=8, seed=5)
    refused = world.corpus.item_ids[3]
    backend = FaultBackend(MockLLMBackend(world.taxonomy, seed=0),
                           f"[{refused}]", BackendRefusalError)
    gateway = _gateway(backend)
    tree = VocabularyTree(root_items=set(world.corpus.item_ids))
    for name in world.taxonomy.level1:
        tree.add_child(tree.root_id, DescriptorNode(
            rule_id=tree.fresh_rule_id(tree.root_id, name), name=name,
            description=category_description(name), parent=tree.root_id,
            depth=1))
    others = set(world.corpus.item_ids) - {refused}

    outcome = parallel_assign(list(world.corpus), tree.children_of(tree.root_id),
                              gateway, parallelism=2)
    assert set(outcome.assigned) == others
    assert outcome.unassigned == {refused}
    assert [(r.item_id, r.report_text) for r in outcome.reports] == \
        [(refused, "backend refusal: HTTP 400: request refused")]

    records = {r.item_id: r for r in assign_paths(world.corpus, tree, gateway,
                                                  parallelism=2)}
    assert (records[refused].path, records[refused].flag) == \
        ((), "refused: HTTP 400: request refused")
    assert all(len(records[i].path) == 1 and records[i].flag is None
               for i in others)

    table = generate_freeform(world.corpus, gateway, parallelism=2)
    assert table.n_failed_items == 1
    assert table.tags_by_item[refused] == []
    assert all(table.tags_by_item[i] for i in others)
