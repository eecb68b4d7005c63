"""Run-directory layout, persistence, stage manifest, and the writer lock.

Every run-directory file is read with :func:`read_jsonl` / :func:`read_json`
and written through :func:`atomic_open`, which streams to ``<name>.tmp``
and renames it over the target only once the write finished, so a crash
mid-write never leaves a truncated file behind. Each pipeline stage records
a hash of its inputs in ``manifest.json``; a stage whose hash matches and
whose outputs still exist is skipped, which makes every subcommand
idempotent for unchanged inputs. A stage that runs drops its entry before it
writes, so that a run stopped midway leaves no entry over its half-written
outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO


class RunDirError(RuntimeError):
    pass


@dataclass
class RunPaths:
    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def config(self) -> Path: return self.root / "config.json"
    @property
    def manifest(self) -> Path: return self.root / "manifest.json"
    @property
    def lock(self) -> Path: return self.root / ".lock"
    @property
    def corpus(self) -> Path: return self.root / "corpus.jsonl"
    @property
    def splits(self) -> Path: return self.root / "splits.jsonl"
    @property
    def ledger(self) -> Path: return self.root / "ledger.jsonl"
    @property
    def transcript(self) -> Path: return self.root / "transcript.jsonl"
    @property
    def vocab(self) -> Path: return self.root / "vocab.json"
    @property
    def vocab_items(self) -> Path: return self.root / "vocab_items.jsonl"
    @property
    def annotations(self) -> Path: return self.root / "annotations.jsonl"
    @property
    def checkpoint(self) -> Path: return self.root / "vocab.checkpoint.json"
    @property
    def refinement_logs(self) -> Path: return self.root / "refinement_logs.jsonl"
    @property
    def build_report(self) -> Path: return self.root / "build_report.json"
    @property
    def assignments(self) -> Path: return self.root / "assignments.jsonl"
    @property
    def semids(self) -> Path: return self.root / "semids.jsonl"
    @property
    def token_map(self) -> Path: return self.root / "token_map.json"
    @property
    def fixed_slots(self) -> Path: return self.root / "fixed_slots.csv"
    @property
    def model(self) -> Path: return self.root / "model.bin"
    @property
    def reports(self) -> Path: return self.root / "reports"

    def ensure(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(exist_ok=True)


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Text handle on ``<path>.tmp``, renamed over ``path`` on success.

    On any error the temporary file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict], **dumps_kwargs) -> None:
    """Stream one JSON object per line through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, **dumps_kwargs) + "\n")


def write_json(path: str | Path, payload, **dumps_kwargs) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, **dumps_kwargs))


_raw_decode = json.JSONDecoder().raw_decode


def decode_line(line: str):
    """The JSON value of one stripped run-file line.

    Accepts exactly what ``json.loads`` accepts on a stripped line and raises
    ``json.JSONDecodeError`` on the rest, without its per-call whitespace
    scan: a value must start at the first character and end at the last.
    """
    value, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return value


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one parsed object per non-blank line."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield decode_line(line)


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


_HASH_CHUNK = 1 << 20


def inputs_hash(*parts: object) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            digest.update(str(part).encode())
            if part.exists():
                with part.open("rb") as fh:
                    while chunk := fh.read(_HASH_CHUNK):
                        digest.update(chunk)
        else:
            digest.update(json.dumps(part, sort_keys=True, default=str).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def load_manifest(paths: RunPaths) -> dict:
    return read_json(paths.manifest) if paths.manifest.exists() else {}


def stage_is_current(paths: RunPaths, stage: str, digest: str,
                     outputs: list[Path]) -> bool:
    manifest = load_manifest(paths)
    entry = manifest.get(stage)
    if not entry or entry.get("inputs_hash") != digest:
        return False
    return all(p.exists() for p in outputs)


def unmark_stage(paths: RunPaths, stage: str) -> None:
    manifest = load_manifest(paths)
    if manifest.pop(stage, None) is not None:
        write_json(paths.manifest, manifest, indent=2, sort_keys=True)


def mark_stage(paths: RunPaths, stage: str, digest: str,
               outputs: list[Path]) -> None:
    manifest = load_manifest(paths)
    manifest[stage] = {"inputs_hash": digest,
                       "outputs": [str(p) for p in outputs]}
    write_json(paths.manifest, manifest, indent=2, sort_keys=True)


class RunLock:
    """Exclusive-create lock file holding the writer's PID; one pipeline
    stage per run dir at a time. A lock whose PID names no running process
    is stale: it is taken over, with a note on stderr."""

    def __init__(self, paths: RunPaths):
        self._path = paths.lock
        self._held = False

    def __enter__(self) -> "RunLock":
        try:
            fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = self._stale_pid()
            if pid is None:
                raise RunDirError(
                    f"run directory is locked by another process ({self._path}); "
                    "remove the lock file if that process is gone") from None
            print(f"WARN:stale-lock: taking over {self._path} "
                  f"(pid {pid} is not running)", file=sys.stderr)
            self._path.unlink(missing_ok=True)
            return self.__enter__()
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        self._held = True
        return self

    def _stale_pid(self) -> int | None:
        """The lock's PID if no process by that PID is running, else None
        (also when the file cannot be read or holds no PID)."""
        try:
            pid = int(self._path.read_text(encoding="utf-8").strip())
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except (OSError, ValueError):
            return None
        return None

    def __exit__(self, *exc_info) -> None:
        if self._held:
            try:
                self._path.unlink()
            except FileNotFoundError:
                pass
            self._held = False
