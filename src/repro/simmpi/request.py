"""Non-blocking operation handles.

Mirrors the mpi4py Request idiom (``req = comm.isend(...); req.wait()``)
for the one operation the paper leans on: the non-blocking one-sided
``MPI_Get`` that prefetches the next database shard while the current one
is being scored (Algorithms A and B, "the non-blocking request ... is for
masking communication with computation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class SimRequest:
    """Handle for an in-flight one-sided transfer.

    Attributes:
        origin: issuing rank.
        target: rank whose window is being read.
        window: window name on the target.
        nbytes: transfer volume charged to the network.
        issue_time: origin's virtual clock when the Get was posted.
        completion_time: virtual time the data is fully landed at the
            origin (resolved eagerly at issue; see package docstring).
        payload: the transferred object, available after completion.
    """

    origin: int
    target: int
    window: str
    nbytes: int
    issue_time: float
    completion_time: float
    payload: Any = field(default=None, repr=False)
    completed: bool = False
