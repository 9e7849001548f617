"""On-disk trial cache: fingerprinted, keyed, atomic, self-invalidating.

Timing every plan costs a second or more, so repeat runs keep each
plan's two measured numbers on disk.  The cache borrows the two
discipline points of the ``repro.store`` header (store/index_store.py):

* **Atomic writes** — serialize to a hidden tmp sibling in the target
  directory, fsync, then ``os.replace``.  A reader never observes a
  torn file; a crash mid-write leaves the previous cache (or nothing)
  in place.
* **Validation** — the payload embeds a schema tag, a machine
  fingerprint (platform, CPU count, python/numpy versions) and the key
  of what the rates depend on (scorer, tolerances, database size, store
  fingerprint).  Any mismatch — different host, different interpreter,
  another workload's key, corrupt or truncated JSON, numbers that fail
  validation — makes :func:`load_trials` return ``None`` and the caller
  times the plans again.  A stale or damaged cache can cost one trial,
  never a wrong answer or a crash.
"""

from __future__ import annotations

import json
import math
import os
import platform
from typing import Any, Dict, Optional

#: /6: timed-trial results per plan label under a workload key; /5 and
#: earlier held least-squares-fitted CostModel terms nothing reads now
CACHE_SCHEMA = "repro.tune_trials/6"


def machine_fingerprint() -> Dict[str, Any]:
    """Identity of the machine + toolchain the trial was timed on: rates
    timed under numpy X on machine A must not pick a plan under numpy Y
    on machine B."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _valid_terms(terms: Any) -> bool:
    """One plan's entry: exactly the two trial terms, finite and >= 0."""
    return (
        isinstance(terms, dict)
        and set(terms) == {"fixed_s", "seconds_per_candidate"}
        and all(
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and math.isfinite(v)
            and v >= 0
            for v in terms.values()
        )
    )


def _valid_trials(trials: Any) -> bool:
    """Trials must be a non-empty plan-label -> terms mapping."""
    return (
        isinstance(trials, dict)
        and bool(trials)
        and all(isinstance(k, str) and _valid_terms(v) for k, v in trials.items())
    )


def save_trials(
    path: str,
    key: Dict[str, Any],
    trials: Dict[str, Dict[str, float]],
    details: Optional[Dict[str, Any]] = None,
) -> str:
    """Atomically persist one workload key's trials; returns the expanded path."""
    path = os.path.expanduser(path)
    payload = {
        "schema": CACHE_SCHEMA,
        "fingerprint": machine_fingerprint(),
        "key": dict(key),
        "trials": {label: dict(terms) for label, terms in trials.items()},
        "details": details or {},
    }
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_trials(path: str, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Load the cached trials for ``key``, or ``None`` if they cannot be trusted.

    Every failure mode — missing file, torn/corrupt JSON, schema drift,
    fingerprint mismatch, another workload's key, invalid values —
    degrades to ``None`` (time the plans again), never an exception.
    """
    path = os.path.expanduser(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    trusted = (
        isinstance(payload, dict)
        and payload.get("schema") == CACHE_SCHEMA
        and payload.get("fingerprint") == machine_fingerprint()
        and payload.get("key") == key
        and _valid_trials(payload.get("trials"))
    )
    return payload if trusted else None
