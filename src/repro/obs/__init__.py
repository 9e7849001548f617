"""repro.obs: the unified observability layer.

One subsystem, shared by every engine, for everything the runtime
measures about itself:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, fixed-bucket histograms, timing spans) with a disabled-mode
  fast path, wired into the scoring hot paths;
* :mod:`repro.obs.naming` — the canonical extras/metric vocabulary;
* :mod:`repro.obs.report` — :class:`RunReport`, the schema-versioned
  JSON record merging trace, extras, fault stats and metrics;
* :mod:`repro.obs.chrome_trace` — Chrome trace-event export of per-rank
  simulated timelines and per-process worker spans.

The telemetry contract (names, schema, trace categories) is documented
in ``docs/observability.md``.
"""

from repro.obs.chrome_trace import (
    chrome_trace,
    events_from_metrics,
    events_from_summary,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    enable_metrics,
    get_metrics,
    use_registry,
)
from repro.obs.naming import simmpi_extras
from repro.obs.report import SCHEMA, RunReport

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "enable_metrics",
    "get_metrics",
    "use_registry",
    "simmpi_extras",
    "SCHEMA",
    "RunReport",
    "chrome_trace",
    "events_from_metrics",
    "events_from_summary",
    "write_chrome_trace",
]
