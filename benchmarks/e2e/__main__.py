"""``python -m benchmarks.e2e ...`` is ``python benchmarks/e2e/run.py ...``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
