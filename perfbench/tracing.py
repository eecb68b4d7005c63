"""Spans around calls into the program's public functions, for the traced run.

Wrappers are installed where each caller looks the name up (a module
attribute, or a method on its class) and removed afterwards; nothing inside
``src/tagforge`` changes. Spans are kept in memory. A span opened in a pool
thread takes the call that submitted the work as its parent.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from tagforge import (assignment, builder, cli, clustering, corpus, decoding, evalkit,
                      freeform, gateway, mockllm, prompts, refinement)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    trace_id: str

    @property
    def length(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self.largest_k_medoids = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident(), self.trace_id))

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                with self._counter_lock:  # pool threads note concurrently
                    note(self.counters, args, kwargs, result)
            return result
        return traced

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.stack = [parent] if parent is not None else []
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []
                return super().submit(run, *args, **kwargs)
        return TracedPool


def _note_assigned(counters, args, kwargs, result) -> None:
    counters["assigned_items"] += len(result)


def _note_reask(counters, args, kwargs, result) -> None:
    prompt = args[2] if len(args) > 2 else kwargs.get("prompt", "")
    if prompt.endswith(prompts.FORMAT_REMINDER):
        counters["reask_calls"] += 1


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    spanned = [
        (clustering, "embed_batch", "clustering.embed_batch", None),
        (refinement, "embed_batch", "clustering.embed_batch", None),
        (freeform, "embed_batch", "clustering.embed_batch", None),
        (refinement, "init_vocabulary", "refinement.init_vocabulary", None),
        (refinement, "parallel_assign", "refinement.parallel_assign", None),
        (refinement, "propose_changes", "refinement.propose_changes", None),
        (refinement, "review_and_apply", "refinement.review_and_apply", None),
        (builder, "save_checkpoint", "builder.save_checkpoint", None),
        (gateway.Gateway, "complete", "gateway.complete", _note_reask),
        (mockllm.MockLLMBackend, "generate", "mockllm.generate", None),
        (assignment, "assign_paths", "assignment.assign_paths", _note_assigned),
        (assignment, "export_semids", "assignment.export_semids", None),
        (freeform, "generate_freeform", "freeform.generate_freeform", None),
        (decoding, "fit_surrogate", "decoding.fit_surrogate", None),
        (decoding, "build_trie", "decoding.build_trie", None),
        (decoding, "encode_history", "decoding.encode_history", None),
        (evalkit, "encode_history", "decoding.encode_history", None),
        (evalkit, "evaluate_run", "evalkit.evaluate_run", None),
        (cli, "load_corpus", "corpus.load", None),
        (cli, "load_interactions", "corpus.load", None),
        (cli, "read_splits", "corpus.load", None),
        (corpus, "load_corpus", "corpus.load", None),
        (corpus, "read_splits", "corpus.load", None),
        (cli, "last_out_split", "corpus.split", None),
        (cli, "inputs_hash", "runs.inputs_hash", None),
    ]
    patches = [(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
               for owner, attr, name, note in spanned]
    patches += [(owner, "k_medoids", _k_medoids(tracer, owner.k_medoids))
                for owner in (clustering, refinement)]
    patches += [(owner, "beam_decode", _beam_decode(tracer, owner.beam_decode))
                for owner in (decoding, evalkit)]
    pool = tracer.pool_class()
    patches += [(owner, "ThreadPoolExecutor", pool)
                for owner in (assignment, refinement, freeform)]
    patches.append((decoding.SurrogateModel, "logprob",
                    _counted(tracer, decoding.SurrogateModel.logprob)))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _k_medoids(tracer: Tracer, fn):
    """Span, and keep the largest call's arguments for :func:`k_medoids_peak_mb`."""
    @functools.wraps(fn)
    def traced(vectors, *args, **kwargs):
        with tracer.span("clustering.k_medoids"):
            result = fn(vectors, *args, **kwargs)
        largest = tracer.largest_k_medoids
        if largest is None or len(vectors) > len(largest[1]):
            tracer.largest_k_medoids = (fn, vectors, args, kwargs)
        return result
    return traced


def k_medoids_peak_mb(tracer: Tracer) -> float:
    """Traced allocation peak of the largest k_medoids call, replayed under
    tracemalloc after the traced round so that no timing pays for tracemalloc."""
    if tracer.largest_k_medoids is None:
        return 0.0
    fn, vectors, args, kwargs = tracer.largest_k_medoids
    tracemalloc.start()
    try:
        fn(vectors, *args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _beam_decode(tracer: Tracer, fn):
    """Span plus the scorer calls made inside the search (not by rescoring)."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = tracer.counters["logprob_any"]
        with tracer.span("decoding.beam_decode"):
            result = fn(*args, **kwargs)
        tracer.counters["logprob_calls"] += tracer.counters["logprob_any"] - before
        return result
    return traced


def _counted(tracer: Tracer, fn):
    """Count calls without a span: the decoder makes millions of them."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counters["logprob_any"] += 1
        return fn(*args, **kwargs)
    return counted


# -- analysis ---------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# Names of the spans the runner opens around each CLI stage and operation.
STAGE_PREFIXES = ("stage:", "op:")


class SpanTree:
    """Self times and subtree sums over one run's spans.

    Self time is a span's length minus the time its children cover. Children
    running at once in pool threads are counted once in that cover; the time
    they overlapped is kept as the parent's ``overlap``.
    """

    def __init__(self, spans: list[Span]):
        self.spans = {s.span_id: s for s in spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        self._by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
            self._by_name[s.name].append(s)
        self.self_time: dict[int, float] = {}
        self.overlap: dict[int, float] = {}
        for s in spans:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in self.children[s.span_id]]
            kids = [(a, b) for a, b in kids if b > a]
            cover = _union(kids)
            self.self_time[s.span_id] = s.length - cover
            self.overlap[s.span_id] = sum(b - a for a, b in kids) - cover

    def named(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s.length for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.span_id] for s in self.named(name))

    def subtree(self, span: Span) -> list[Span]:
        out, pending = [], [span]
        while pending:
            s = pending.pop()
            out.append(s)
            pending.extend(self.children[s.span_id])
        return out

    def under(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans have an ``ancestor`` span above them."""
        count = 0
        for s in self.named(name):
            parent = s.parent
            while parent is not None:
                if self.spans[parent].name == ancestor:
                    count += 1
                    break
                parent = self.spans[parent].parent
        return count

    def stage_balance(self, span: Span) -> float:
        """|sum of self times - pool overlap - stage length| over a stage, as
        a share of its length. Zero unless a span lies outside its parent."""
        nodes = self.subtree(span)
        total = sum(self.self_time[s.span_id] - self.overlap[s.span_id] for s in nodes)
        return abs(total - span.length) / span.length if span.length > 0 else 0.0

    def attribution_error(self) -> float:
        """Worst share of traced time that the span tree misattributes.

        Each stage's balance (above) catches a span outside its parent. A root
        span that is not a stage or operation belongs to no stage, as when a
        span opened in a pool thread lost its parent; its length counts as a
        miss of the total stage time.
        """
        roots = self.children[None]
        stages = [s for s in roots if s.name.startswith(STAGE_PREFIXES)]
        stray = sum(s.length for s in roots if not s.name.startswith(STAGE_PREFIXES))
        total = sum(s.length for s in stages)
        worst = max((self.stage_balance(s) for s in stages), default=0.0)
        return max(worst, stray / total if total > 0 else float(stray > 0))


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, checkpoint: Path | None,
                  skip_stage_s: list[float], import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, by name: (value, unit)."""
    tree = SpanTree(tracer.spans)
    c = tracer.counters
    calls = len(tree.named("gateway.complete"))
    beams = len(tree.named("decoding.beam_decode"))
    encodes = len(tree.named("decoding.encode_history"))
    generates = len(tree.named("mockllm.generate"))
    return {
        "clustering.k_medoids_s": (tree.total("clustering.k_medoids"), "s"),
        "clustering.k_medoids_calls": (len(tree.named("clustering.k_medoids")), "count"),
        "clustering.k_medoids_peak_mb": (k_medoids_peak_mb(tracer), "MB"),
        "clustering.embed_s": (tree.total("clustering.embed_batch"), "s"),
        "refinement.init_vocabulary_s": (tree.total("refinement.init_vocabulary"), "s"),
        "refinement.parallel_assign_s": (tree.total("refinement.parallel_assign"), "s"),
        "refinement.propose_changes_s": (tree.total("refinement.propose_changes"), "s"),
        "refinement.review_and_apply_s": (tree.total("refinement.review_and_apply"), "s"),
        "refinement.cycles": (len(tree.named("refinement.parallel_assign")), "count"),
        "builder.save_checkpoint_s": (tree.total("builder.save_checkpoint"), "s"),
        "builder.checkpoint_mb": ((checkpoint.stat().st_size / 2**20)
                                  if checkpoint is not None and checkpoint.exists() else 0.0,
                                  "MB"),
        "gateway.calls": (calls, "count"),
        "gateway.overhead_us_per_call": (_per(tree.self_total("gateway.complete"), calls) * 1e6,
                                         "us"),
        "gateway.reask_calls": (c["reask_calls"], "count"),
        "mockllm.generate_us_per_call": (_per(tree.total("mockllm.generate"), generates) * 1e6,
                                         "us"),
        "assignment.assign_paths_s": (tree.total("assignment.assign_paths"), "s"),
        "assignment.calls_per_item": (_per(tree.under("gateway.complete", "assignment.assign_paths"),
                                           c["assigned_items"]), "calls/item"),
        "assignment.export_semids_s": (tree.total("assignment.export_semids"), "s"),
        "freeform.generate_freeform_s": (tree.total("freeform.generate_freeform"), "s"),
        "freeform.calls": (tree.under("gateway.complete", "freeform.generate_freeform"), "count"),
        "decoding.fit_surrogate_s": (tree.total("decoding.fit_surrogate"), "s"),
        "decoding.encode_history_ms_per_user": (_per(tree.total("decoding.encode_history"),
                                                     encodes) * 1e3, "ms"),
        "decoding.beam_decode_ms_per_user": (_per(tree.total("decoding.beam_decode"), beams) * 1e3,
                                             "ms"),
        "decoding.logprob_calls_per_user": (_per(c["logprob_calls"], beams), "calls/user"),
        "evalkit.evaluate_run_s": (tree.total("evalkit.evaluate_run"), "s"),
        "corpus.load_s": (tree.total("corpus.load"), "s"),
        "corpus.split_s": (tree.total("corpus.split"), "s"),
        "runs.inputs_hash_s": (tree.total("runs.inputs_hash"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.skip_stage_s": (statistics.median(skip_stage_s) if skip_stage_s else 0.0, "s"),
        "trace.spans": (len(tree.spans), "count"),
        "trace.thread_overlap_s": (sum(tree.overlap.values()), "s"),
        "trace.self_sum_error_pct": (tree.attribution_error() * 100, "%"),
    }

