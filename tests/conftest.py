from __future__ import annotations

import fcntl
import hashlib
import importlib.util
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from tagforge.clustering import HashingProvider
from tagforge.gateway import (AgentRole, BackendRefusalError, Gateway,
                              TransientBackendError)
from tagforge.mockllm import MockLLMBackend
from tagforge.planted import make_world


def make_gateway(world, seed=0, false_negative_rate=0.0, hidden=(),
                 **gateway_kwargs) -> Gateway:
    backend = MockLLMBackend(world.taxonomy, seed=seed,
                             false_negative_rate=false_negative_rate,
                             hidden_categories=frozenset(hidden))
    return Gateway({AgentRole.ARCHITECT: backend,
                    AgentRole.ANNOTATOR: backend}, **gateway_kwargs)


class FaultBackend:
    """Wraps a backend; a prompt that contains ``marker`` fails with
    ``fault``: :class:`TransientBackendError` the way an HTTP 503 does, or
    :class:`BackendRefusalError` the way an HTTP 400 does.

    With ``rate`` below 1 only that share of the marked prompts fails,
    chosen by a hash of ``seed`` and the prompt, so the same prompts fail
    on every run, in any order and at any parallelism.
    """

    MESSAGES = {TransientBackendError: "HTTP 503",
                BackendRefusalError: "HTTP 400: request refused"}

    def __init__(self, inner, marker: str, fault=TransientBackendError,
                 rate: float = 1.0, seed: int = 0):
        self.inner = inner
        self.marker = marker
        self.fault = fault
        self.rate = rate
        self.seed = seed

    def fails(self, prompt: str) -> bool:
        if self.marker not in prompt:
            return False
        digest = hashlib.sha1(f"{self.seed}|{prompt}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") < self.rate * 2**32

    def generate(self, prompt):
        if self.fails(prompt):
            raise self.fault(self.MESSAGES[self.fault])
        return self.inner.generate(prompt)


class GarbageBackend:
    """Wraps a backend; every prompt that ``hit`` accepts gets a reply that
    holds no JSON, so no response parser accepts it."""

    REPLY = "I would rather not say."

    def __init__(self, inner, hit):
        self.inner = inner
        self.hit = hit

    def generate(self, prompt):
        if self.hit(prompt):
            return self.REPLY
        return self.inner.generate(prompt)


@contextmanager
def held_flock(path):
    """Hold an exclusive ``flock`` on ``path`` through an open file
    description of its own, the way another writer holds a run's lock."""
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def load_perfbench(name: str):
    """The benchmark module ``perfbench/<name>.py``, which is not a package,
    loaded from its file under the name ``perfbench_<name>``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def failing_items_gateway(world, down: str, garbled: str, **gateway_kwargs):
    """A mock gateway on which every call about item ``down`` fails its
    transport and every call about item ``garbled`` is answered with garbage."""
    backend = MockLLMBackend(world.taxonomy, seed=0)
    backend = FaultBackend(backend, f"[{down}]")
    backend = GarbageBackend(backend, lambda prompt: f"[{garbled}]" in prompt)
    gateway_kwargs.setdefault("max_retries", 1)
    gateway_kwargs.setdefault("backoff_base", 0.0)
    return Gateway({AgentRole.ARCHITECT: backend, AgentRole.ANNOTATOR: backend},
                   **gateway_kwargs)


@pytest.fixture(scope="session")
def small_world():
    """3x3 taxonomy, 270 items: fast enough for per-module tests."""
    return make_world(branching=(3, 3), n_items=270, seed=5)


@pytest.fixture(scope="session")
def provider():
    return HashingProvider(dim=256)


@pytest.fixture()
def small_gateway(small_world):
    return make_gateway(small_world)


@pytest.fixture(scope="session")
def small_build(small_world):
    """One shared noise-free build over the 3x3 world. Treat as read-only."""
    from tagforge.builder import build_vocabulary
    from tagforge.vocab import BuildConfig

    gateway = make_gateway(small_world)
    state = build_vocabulary(small_world.corpus, BuildConfig(d_max=2, tau_split=20),
                             gateway, HashingProvider(dim=256))
    return small_world, state


@pytest.fixture(scope="session")
def small_semids(small_build):
    """Assignments, resolver ranks, and the exported table for the 3x3 world."""
    from tagforge.assignment import (assign_paths, export_semids,
                                     resolve_collisions)

    world, state = small_build
    gateway = make_gateway(world)
    records = assign_paths(world.corpus, state.tree, gateway, parallelism=8)
    records = resolve_collisions(records)
    table = export_semids(records, state.tree)
    return world, state.tree, records, table
