"""Cost-model-driven autotuner (``repro tune`` / ``search --autotune``).

Three layers close the loop between the measurement half (``repro.obs``
spans) and the model half (:class:`~repro.core.costmodel.CostModel`):

1. **Calibration** (:mod:`repro.tune.calibrate`) — short seeded
   microbenchmarks fit the CostModel terms to *this* host from measured
   spans via least squares, cached on disk behind a machine fingerprint
   (:mod:`repro.tune.cache`).
2. **Planning** (:mod:`repro.tune.plan`) — enumerate the feasible knob
   grid (engine x index x sweep x cohort x blocks x start method x
   stream), prune plans that do not fit the memory budget, and pick
   the configuration minimizing predicted makespan.
3. **Verification** (:mod:`repro.tune.tuner`) — run the chosen
   configuration, compare predicted vs. measured phase times
   span-by-span, and project the communication lower bounds
   (:mod:`repro.tune.lower_bounds`) at p = 128-1024 simulated ranks,
   all emitted as the RunReport ``tuning`` section.
"""

from repro.tune.cache import (  # noqa: F401
    CACHE_SCHEMA,
    load_calibration,
    machine_fingerprint,
    save_calibration,
)
from repro.tune.calibrate import Calibration, CalibrationSpec, calibrate  # noqa: F401
from repro.tune.lower_bounds import overlap_projection  # noqa: F401
from repro.tune.plan import (  # noqa: F401
    CandidatePlan,
    PredictedMakespan,
    WorkloadProfile,
    enumerate_plans,
    predict_makespan,
    profile_workload,
)
from repro.tune.tuner import TuneResult, autotune  # noqa: F401
