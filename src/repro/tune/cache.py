"""On-disk calibration cache: fingerprinted, atomic, self-invalidating.

Calibration costs a few seconds of microbenchmarks, so repeat runs keep
the fitted terms on disk.  The cache borrows the two discipline points
of the ``repro.store`` header (store/index_store.py):

* **Atomic writes** — serialize to a hidden tmp sibling in the target
  directory, fsync, then ``os.replace``.  A reader never observes a
  torn file; a crash mid-write leaves the previous cache (or nothing)
  in place.
* **Fingerprint validation** — the payload embeds a machine fingerprint
  (platform, CPU count, python/numpy versions) and a schema tag.  Any
  mismatch — different host, different interpreter, corrupt or
  truncated JSON, terms that fail validation — makes :func:`load_calibration`
  return ``None`` and the caller re-calibrates.  A stale or damaged
  cache can cost one calibration pass, never a wrong answer or a crash.
"""

from __future__ import annotations

import json
import math
import os
import platform
from typing import Any, Dict, Optional

#: /5: ``index_probe_discount`` is fitted on a posting-served
#: (hyperscore) pass; a /4 cache holds the matrix-served likelihood
#: figure under the same name
CACHE_SCHEMA = "repro.tune_calibration/5"

#: default cache location; overridable per call and via ``repro tune --cache``
DEFAULT_CACHE_PATH = os.path.join("~", ".cache", "repro", "calibration.json")


def machine_fingerprint() -> Dict[str, Any]:
    """Identity of the machine + toolchain the calibration measured.

    Anything that changes kernel timings materially belongs here: a
    cache fitted under numpy X on machine A must not predict makespans
    under numpy Y on machine B.
    """
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
    """Terms must be a non-empty str->finite-nonnegative-float mapping."""
    if not isinstance(terms, dict) or not terms:
        return False
    for name, value in terms.items():
        if not isinstance(name, str):
            return False
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if not math.isfinite(value) or value < 0:
            return False
    return True


def save_calibration(
    path: str, terms: Dict[str, float], details: Optional[Dict[str, Any]] = None
) -> str:
    """Atomically persist fitted terms; returns the expanded path."""
    path = os.path.expanduser(path)
    payload = {
        "schema": CACHE_SCHEMA,
        "fingerprint": machine_fingerprint(),
        "terms": dict(terms),
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


def load_calibration(path: str) -> Optional[Dict[str, Any]]:
    """Load a cached calibration, or ``None`` if it cannot be trusted.

    Every failure mode — missing file, torn/corrupt JSON, schema drift,
    fingerprint mismatch, invalid term values — degrades to ``None``
    (re-calibrate), never an exception.
    """
    path = os.path.expanduser(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != CACHE_SCHEMA:
        return None
    if payload.get("fingerprint") != machine_fingerprint():
        return None
    if not _valid_terms(payload.get("terms")):
        return None
    return payload
