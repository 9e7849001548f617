"""Empirical autotuner (``repro tune`` / ``search --autotune``).

The feasible ways of running a search on the real engines are few, so
the tuner times them instead of modelling them:

1. **The grid** (:mod:`repro.tune.plan`) — {serial, multiproc at the
   host's width} x {direct, streamed from a partitioned store}, pruned of
   what cannot run here; knobs with no measured effect are pinned.
2. **The trial** (:mod:`repro.tune.tuner`) — each plan runs on two
   mass-stratified query samples; its two measured numbers (a fixed
   cost, seconds per candidate) give its makespan at the workload's exact
   candidate count, cached behind a fingerprint (:mod:`repro.tune.cache`).
3. **The check** — the pick runs; the RunReport ``tuning`` section holds
   its predicted and measured makespan beside the communication lower
   bounds (:mod:`repro.tune.lower_bounds`) at p = 128-1024 ranks.
"""

from repro.tune.cache import (  # noqa: F401
    CACHE_SCHEMA,
    load_trials,
    machine_fingerprint,
    save_trials,
)
from repro.tune.lower_bounds import overlap_projection  # noqa: F401
from repro.tune.plan import (  # noqa: F401
    CandidatePlan,
    WorkloadProfile,
    enumerate_plans,
    profile_workload,
)
from repro.tune.tuner import PlanTrial, TuneResult, autotune, time_plans  # noqa: F401
