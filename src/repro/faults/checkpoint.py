"""Checkpoint/resume for the supervised search engine.

A checkpoint persists exactly what a restarted run needs to avoid
rescoring finished work:

* the set of completed query-block task ids;
* the merged per-query top-tau hits those tasks produced, as
  :class:`~repro.scoring.hits.HitColumns` (bounded — tau hits per query
  — so checkpoints stay small regardless of how many candidates were
  evaluated);
* cumulative work counters, so resumed reports stay truthful.

Because every task's hits are final for its queries and the top-tau
order is deterministic, merging checkpointed hits with freshly-computed
hits from the remaining tasks reproduces the uninterrupted run's output
exactly — the same argument that makes the paper's parallel == serial
validation hold.

Writes are atomic (temp file + ``os.replace``), so a run killed mid-save
leaves the previous checkpoint intact.  A fingerprint of the run's shape
(query blocks, query count, search parameters) guards against resuming
into a different run.  A crash *between* the temp write and the rename
leaves an orphan ``.checkpoint-*`` sibling behind; constructing or
resuming a manager sweeps such orphans away — they are half-written
scratch files, never checkpoints, and must not be mistaken for one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Union

import numpy as np

from repro.errors import CheckpointError
from repro.obs.metrics import get_metrics
from repro.scoring.hits import Hit, HitColumns, HitTable, as_hit_columns, pack_hit_columns

#: 2: hits are one JSON list per ``HitColumns`` field (1 held per-Hit dicts)
_FORMAT_VERSION = 2

#: prefix of the atomic-write scratch files (`tempfile.mkstemp` below);
#: anything carrying it is an interrupted flush, safe to delete
_TMP_PREFIX = ".checkpoint-"

_PathLike = Union[str, os.PathLike]


def _merge(parts, tau: int) -> HitTable:
    # deferred: core.results imports simmpi, which imports this package
    from repro.core.results import merge_rank_hits

    return merge_rank_hits(parts, tau)


def clean_orphan_tmp_files(path: _PathLike) -> List[str]:
    """Remove interrupted-flush scratch siblings of checkpoint ``path``.

    A crash between ``mkstemp`` and ``os.replace`` strands a
    ``.checkpoint-*`` file next to the checkpoint.  Orphans are inert —
    resume never reads them — but they accumulate and invite confusion
    (a human or tool picking one up would see a half-written file whose
    fingerprint, if it parses at all, trips the different-run guard).
    Returns the removed names.  Never touches ``path`` itself.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    own_name = os.path.basename(os.fspath(path))
    removed: List[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(_TMP_PREFIX) or name == own_name:
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed.append(name)
        except OSError:
            pass  # raced with another cleaner, or permissions: not ours to fix
    return removed


@dataclass
class SearchCheckpoint:
    """In-memory image of one checkpoint file."""

    fingerprint: Dict[str, object]
    completed_tasks: Set[int] = field(default_factory=set)
    #: columns, a table over them or a dict of lists; loads as a HitTable
    hits: Mapping[int, List[Hit]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        columns = as_hit_columns(self.hits)
        payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "completed_tasks": sorted(self.completed_tasks),
            "counters": dict(self.counters),
            "hits": {name: column.tolist() for name, column in zip(HitColumns._fields, columns)},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "fingerprint" not in payload:
            raise CheckpointError("checkpoint JSON missing 'fingerprint'")
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} (expected {_FORMAT_VERSION})"
            )
        try:
            columns = HitColumns(
                *(
                    np.array(payload["hits"][name], dtype=column.dtype)
                    for name, column in zip(HitColumns._fields, pack_hit_columns({}, ()))
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint hits are not hit columns: {exc!r}") from exc
        return cls(
            fingerprint=dict(payload["fingerprint"]),
            completed_tasks=set(int(t) for t in payload.get("completed_tasks", [])),
            hits=HitTable(columns),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
        )

    @classmethod
    def load(cls, path: _PathLike) -> "SearchCheckpoint":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!s}: {exc}") from exc


class CheckpointManager:
    """Accumulates completed tasks and persists them as they complete.

    The checkpoint file is rewritten after every completed task (and on
    :meth:`flush`).  Each task's hit columns are folded into the held
    ones as it completes
    (:func:`~repro.core.results.merge_rank_hits`), keeping the retained
    state bounded at tau hits per query.
    """

    def __init__(
        self,
        path: _PathLike,
        fingerprint: Dict[str, object],
        tau: int,
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.tau = tau
        self.completed_tasks: Set[int] = set()
        self.counters: Dict[str, int] = {}
        self._merged = HitTable(pack_hit_columns({}, ()))
        clean_orphan_tmp_files(path)

    # -- resuming ---------------------------------------------------------

    @classmethod
    def resume(
        cls,
        path: _PathLike,
        fingerprint: Dict[str, object],
        tau: int,
    ) -> "CheckpointManager":
        """Load ``path`` and seed a manager with its state.

        Raises :class:`CheckpointError` if the file's fingerprint does
        not match this run (different query blocks, parameters, or query
        workload) — resuming would silently corrupt results otherwise.
        """
        state = SearchCheckpoint.load(path)
        if state.fingerprint != fingerprint:
            mismatched = {
                k: (state.fingerprint.get(k), fingerprint.get(k))
                for k in set(state.fingerprint) | set(fingerprint)
                if state.fingerprint.get(k) != fingerprint.get(k)
            }
            raise CheckpointError(
                f"checkpoint {path!s} belongs to a different run; "
                f"mismatched fields (checkpoint, current): {mismatched}"
            )
        manager = cls(path, fingerprint, tau)
        manager.completed_tasks = set(state.completed_tasks)
        manager.counters = dict(state.counters)
        manager._merged = _merge([state.hits], tau)
        return manager

    # -- recording --------------------------------------------------------

    def record(
        self,
        task_id: int,
        columns: Union[HitColumns, Mapping[int, List[Hit]]],
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Fold one completed task's hits in and save."""
        if task_id in self.completed_tasks:
            return
        self.completed_tasks.add(task_id)
        self._merged = _merge([self._merged, columns], self.tau)
        if counters:
            for key, value in counters.items():
                self.counters[key] = self.counters.get(key, 0) + int(value)
        self.flush()

    def merged_hits(self) -> HitTable:
        """Current merged per-query top-tau hits, best first."""
        return self._merged

    def flush(self) -> None:
        """Atomically persist the current state."""
        obs = get_metrics()
        with obs.span(
            "checkpoint.flush",
            category="checkpoint",
            tasks=len(self.completed_tasks),
        ):
            self._flush()
        obs.count("checkpoint.flushes")

    def _flush(self) -> None:
        state = SearchCheckpoint(
            fingerprint=self.fingerprint,
            completed_tasks=self.completed_tasks,
            hits=self.merged_hits(),
            counters=self.counters,
        )
        directory = os.path.dirname(os.fspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(prefix=".checkpoint-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(state.to_json())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
