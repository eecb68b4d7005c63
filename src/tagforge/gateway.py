"""Uniform interface to the architect and annotator LLMs.

A backend is any object with ``generate(prompt) -> str``; whatever else it
needs (model, temperature) it takes at construction. A :class:`Gateway` owns
one backend per role, a thread-safe call ledger, a retry policy for transient
transport failures, an optional global call budget, and two optional files:
the ledger, loaded when the gateway is made and saved by
:meth:`Gateway.save_ledger` and :meth:`Gateway.close`, and the transcript
log, opened on the first call and kept open until :meth:`Gateway.close`.
Each transcript line is one unbuffered append, written without a lock, so
calls on several threads never wait for each other's disk writes.
``complete_parsed`` layers the re-ask policy for malformed responses on top.
:func:`fan_out` runs one batch of per-item calls on a caller's pool: as many
workers as the pool is wide (``parallelism``, the one cap on calls in
flight) take the batch's items in turn.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, TypeVar

from .prompts import FORMAT_REMINDER
from .protocol import ProtocolError
from .runs import read_jsonl, write_jsonl


# Re-asks, each with the format reminder appended, after a malformed response.
MAX_REASKS = 2

# A str's JSON literal, as json.dumps(..., ensure_ascii=False) writes it.
_json_string = json.JSONEncoder(ensure_ascii=False).encode


class AgentRole(str, enum.Enum):
    ARCHITECT = "architect"
    ANNOTATOR = "annotator"


class GatewayError(RuntimeError):
    pass


class TransientBackendError(GatewayError):
    """Retryable transport failure (5xx, 408, 429, timeouts, connection
    errors)."""


class BackendRefusalError(GatewayError):
    """Non-retryable backend failure (any other 4xx, or explicit refusal)."""


class TransportExhaustedError(GatewayError):
    """All transport retries failed."""


class BudgetExhaustedError(GatewayError):
    """The configured call budget has been spent."""


class BuildInterrupted(RuntimeError):
    """Build stopped early (call budget or transport exhausted); a checkpoint
    was persisted. The exhausting error is the ``__cause__``."""


@dataclass
class CallStats:
    calls: int = 0
    retries: int = 0
    token_estimate: int = 0


class CallLedger:
    """Thread-safe, monotone counters per (role, template_id).

    Recording never blocks: a call appends its counts to a queue and folds
    the queue into the counters only if it takes the lock without waiting.
    A call that finds the lock held leaves its counts queued for the holder,
    or for the next call or read, so the queue holds only what was recorded
    while one fold was running. Reads take the lock and fold the queue
    first, so their totals are exact.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, str], CallStats] = {}
        # (key, calls, retries, tokens); deque appends and pops are atomic.
        self._queued: deque[tuple[tuple[str, str], int, int, int]] = deque()

    def record_call(self, role: AgentRole, template_id: str,
                    prompt: str, response: str) -> None:
        self._record((role.value, template_id), 1, 0,
                     (len(prompt) + len(response)) // 4)

    def record_retry(self, role: AgentRole, template_id: str) -> None:
        self._record((role.value, template_id), 0, 1, 0)

    def _record(self, key: tuple[str, str], calls: int, retries: int,
                tokens: int) -> None:
        self._queued.append((key, calls, retries, tokens))
        if self._lock.acquire(blocking=False):
            try:
                self._fold()
            finally:
                self._lock.release()

    def _fold(self) -> None:
        """Add every queued count to the counters; the caller holds the
        lock, so no other thread pops the queue."""
        queued, table = self._queued, self._stats
        while queued:
            key, calls, retries, tokens = queued.popleft()
            stats = table.get(key)
            if stats is None:
                stats = table[key] = CallStats()
            stats.calls += calls
            stats.retries += retries
            stats.token_estimate += tokens

    def _totals(self) -> dict[tuple[str, str], CallStats]:
        """The counters with nothing left queued; the caller holds the lock."""
        self._fold()
        return self._stats

    def calls(self, role: AgentRole | None = None,
              template_id: str | None = None) -> int:
        with self._lock:
            return sum(
                s.calls for (r, t), s in self._totals().items()
                if (role is None or r == role.value)
                and (template_id is None or t == template_id)
            )

    def retries(self, role: AgentRole | None = None,
                template_id: str | None = None) -> int:
        with self._lock:
            return sum(
                s.retries for (r, t), s in self._totals().items()
                if (role is None or r == role.value)
                and (template_id is None or t == template_id)
            )

    def snapshot(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                f"{r}/{t}": {"calls": s.calls, "retries": s.retries,
                             "token_estimate": s.token_estimate}
                for (r, t), s in sorted(self._totals().items())
            }

    def save_jsonl(self, path: str | Path) -> None:
        def rows():
            for key, row in self.snapshot().items():
                role, template_id = key.split("/", 1)
                yield {"role": role, "template_id": template_id, **row}
        write_jsonl(path, rows())

    def load_jsonl(self, path: str | Path) -> None:
        """Merge previously persisted counters (a gateway's saved ledger)."""
        with self._lock:
            table = self._totals()
            for row in read_jsonl(path):
                stats = table.setdefault((row["role"], row["template_id"]),
                                         CallStats())
                stats.calls += int(row.get("calls", 0))
                stats.retries += int(row.get("retries", 0))
                stats.token_estimate += int(row.get("token_estimate", 0))


def transcript_latency(path: str | Path) -> dict[str, dict[str, float]]:
    """Calls and the p50, p95 and max ``latency_ms`` per ``role/template_id``
    in a transcript file, keyed as in :meth:`CallLedger.snapshot`.

    The q-th percentile interpolates linearly between the two closest ranks
    of the sorted latencies, at position ``(n - 1) * q / 100``, and is
    rounded to the microsecond.
    """
    latencies: dict[str, list[float]] = {}
    for row in read_jsonl(path):
        latencies.setdefault(f"{row['role']}/{row['template_id']}",
                             []).append(row["latency_ms"])
    for values in latencies.values():
        values.sort()

    def percentile(values: list[float], q: int) -> float:
        position = (len(values) - 1) * q / 100
        low = int(position)
        high = min(low + 1, len(values) - 1)
        return round(values[low] + (values[high] - values[low]) * (position - low), 3)

    return {key: {"calls": len(values), "p50_ms": percentile(values, 50),
                  "p95_ms": percentile(values, 95), "max_ms": max(values)}
            for key, values in sorted(latencies.items())}


class HttpBackend:
    """Generic chat-completion-style JSON-over-HTTP backend on stdlib
    ``urllib``.

    Request body: ``{"model": ..., "messages": [{"role": "user", "content":
    ...}], "temperature": ...}``, with the model and temperature given at
    construction. The first candidate's text is returned; both OpenAI-style
    ``choices`` and Gemini-style ``candidates`` layouts are accepted. The
    credential is read from the environment variable named by ``auth_env``
    and sent as a bearer token. ``opener`` is anything with urllib's
    ``open(request, timeout=...)``; by default ``urllib.request``'s own.
    """

    def __init__(self, endpoint: str, model: str, auth_env: str = "LLM_API_KEY",
                 temperature: float = 0.0, timeout: float = 60.0, opener=None):
        # urllib is imported here, so that a run on the mock never loads it.
        import urllib.request

        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.auth_env = auth_env
        self.timeout = timeout
        self._opener = opener or urllib.request.build_opener()

    def generate(self, prompt: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": self.temperature}
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"),
            headers=headers, method="POST")
        try:
            with self._opener.open(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            with exc:  # the error holds the response, and its body
                detail = exc.read()[:200].decode("utf-8", "replace")
            if exc.code >= 500 or exc.code in (408, 429):
                raise TransientBackendError(f"HTTP {exc.code}") from exc
            raise BackendRefusalError(f"HTTP {exc.code}: {detail}") from exc
        except (OSError, http.client.HTTPException) as exc:
            # Refused or dropped connections and timeouts, on connect or read.
            raise TransientBackendError(f"{type(exc).__name__}: {exc}") from exc
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise BackendRefusalError(
                f"backend reply is not JSON: {raw[:200]!r}") from exc
        return _first_candidate_text(payload)


# Where each accepted reply layout keeps the first candidate's text.
_CANDIDATE_TEXT_PATHS = (("choices", 0, "message", "content"),
                         ("choices", 0, "text"),
                         ("candidates", 0, "content", "parts", 0, "text"),
                         ("text",))


def _first_candidate_text(payload: object) -> str:
    for path in _CANDIDATE_TEXT_PATHS:
        value = payload
        try:
            for key in path:
                value = value[key]
        except (KeyError, IndexError, TypeError):  # not this layout
            continue
        if isinstance(value, str):
            return value
    raise BackendRefusalError("no candidate text in backend response")


class Gateway:
    """Role-routed LLM transport with ledger, retries, budget and transcript.

    Thread-safe: batches call it from pool threads through :func:`fan_out`,
    and the pool's width bounds how many calls are in flight. With a
    ``ledger_path`` the counters already saved there are loaded, so the
    file always holds the run's total.
    """

    def __init__(self, backends: dict[AgentRole, object],
                 max_retries: int = 3, backoff_base: float = 0.5,
                 max_calls: int | None = None,
                 transcript_path: str | Path | None = None,
                 ledger_path: str | Path | None = None):
        self._backends = dict(backends)
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.max_calls = max_calls
        self.ledger = CallLedger()
        self._ledger_path = Path(ledger_path) if ledger_path else None
        if self._ledger_path is not None and self._ledger_path.exists():
            self.ledger.load_jsonl(self._ledger_path)
        # One ticket per admission check; next() on it is atomic under the
        # GIL, so admitting a call takes no lock.
        self._admissions = itertools.count()
        self._transcript_path = Path(transcript_path) if transcript_path else None
        # Guards only opening and closing the transcript, never a write.
        self._transcript_lock = threading.Lock()
        self._transcript: BinaryIO | None = None

    def complete(self, role: AgentRole, prompt: str, template_id: str) -> str:
        """One LLM call. Retries transient failures with exponential backoff.

        Raises :class:`BudgetExhaustedError` before issuing a call that would
        exceed ``max_calls`` (the ledger then still shows exactly the budget).
        """
        backend = self._backends.get(role)
        if backend is None:
            raise GatewayError(f"no backend configured for role {role.value!r}")
        # Budget counts calls admitted by this gateway instance, so a
        # resumed run with a reloaded ledger starts from a fresh budget.
        if self.max_calls is not None and next(self._admissions) >= self.max_calls:
            raise BudgetExhaustedError(
                f"call budget of {self.max_calls} exhausted")
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                response = backend.generate(prompt)
                break
            except TransientBackendError as exc:
                attempt += 1
                self.ledger.record_retry(role, template_id)
                if attempt > self.max_retries:
                    raise TransportExhaustedError(
                        f"{role.value}/{template_id}: {exc}") from exc
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
        self.ledger.record_call(role, template_id, prompt, response)
        self._log_transcript(role, template_id, prompt, response, started)
        return response

    def complete_parsed(self, role: AgentRole, prompt: str, template_id: str,
                        parser: Callable[[str], object]):
        """``complete`` plus parsing; malformed responses trigger up to
        :data:`MAX_REASKS` re-asks with an appended format reminder."""
        current = prompt
        last_error: ProtocolError | None = None
        for _ in range(MAX_REASKS + 1):
            raw = self.complete(role, current, template_id)
            try:
                return parser(raw)
            except ProtocolError as exc:
                last_error = exc
                current = f"{prompt}\n\n{FORMAT_REMINDER}"
        raise ProtocolError(
            f"{role.value}/{template_id}: unparseable after {MAX_REASKS} re-asks: "
            f"{last_error}")

    def _log_transcript(self, role: AgentRole, template_id: str,
                        prompt: str, response: str, started: float) -> None:
        if self._transcript_path is None:
            return
        prompt_hash = hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:12]
        latency_ms = round((time.monotonic() - started) * 1000, 3)
        # json.dumps(row, ensure_ascii=False) of the five keys in this order,
        # without the row dict and the encoder it builds for every call.
        line = (f'{{"role": {_json_string(role.value)}, '
                f'"template_id": {_json_string(template_id)}, '
                f'"prompt_hash": "{prompt_hash}", '
                f'"response": {_json_string(response)}, '
                f'"latency_ms": {latency_ms!r}}}\n').encode("utf-8")
        transcript = self._transcript
        if transcript is None:
            with self._transcript_lock:
                if self._transcript is None:
                    self._transcript = open(self._transcript_path, "ab", buffering=0)
                transcript = self._transcript
        # One unbuffered O_APPEND write per line: the line is in the kernel
        # when the call returns, and appends to a local file do not
        # interleave, so no lock is held across the system call.
        written = transcript.write(line)
        if written != len(line):
            raise OSError(f"{self._transcript_path}: short write, "
                          f"{written} of {len(line)} bytes")

    def save_ledger(self) -> None:
        """Write the counters to the ledger file, if the gateway has one."""
        if self._ledger_path is not None:
            self.ledger.save_jsonl(self._ledger_path)

    def close(self) -> None:
        """Save the ledger and close the transcript; idempotent. A later
        call reopens the transcript. Writes to the transcript take no lock,
        so close only when no call is in flight."""
        self.save_ledger()
        with self._transcript_lock:
            if self._transcript is not None:
                self._transcript.close()
                self._transcript = None


T = TypeVar("T")
R = TypeVar("R")


def fan_out(pool: Executor, work: Callable[[T], R], items: Iterable[T],
            width: int) -> list[R | GatewayError | ProtocolError]:
    """``work(item)`` for every item on ``pool``; the results in item order.

    ``min(width, len(items))`` workers go to the pool, ``width`` being the
    pool's width. Each worker takes the next item not yet taken until none
    is left, so a slow item holds up only its own worker. A
    :class:`TransportExhaustedError`, :class:`BackendRefusalError` or
    :class:`ProtocolError` ends only its own item and takes that item's
    place in the results. A :class:`BudgetExhaustedError` is raised once
    every item has finished, so that the caller saves a ledger no call is
    still adding to.
    """
    items = list(items)
    results: list = [None] * len(items)
    taken = itertools.count()  # next() on it is atomic under the GIL

    def drain() -> None:
        for index in taken:
            if index >= len(items):
                return
            try:
                results[index] = work(items[index])
            except (BudgetExhaustedError, TransportExhaustedError,
                    BackendRefusalError, ProtocolError) as exc:
                results[index] = exc

    workers = [pool.submit(drain)
               for _ in range(min(width, len(items)))]
    for worker in workers:
        worker.result()
    budget_error = next((r for r in results if isinstance(r, BudgetExhaustedError)),
                        None)
    if budget_error is not None:
        raise budget_error
    return results
