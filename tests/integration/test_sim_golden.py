"""Simulated virtual time, pinned bitwise.

The simulated engines charge virtual time from a cost model and a
discrete-event scheduler; none of it depends on the host, so a refactor
of a rank program must leave every number below unchanged to the last
bit.  The matrix runs Algorithm A (masked and unmasked), Algorithm B and
master-worker at p in {1, 2, 3, 5, 8} under a REAL, a MODELED and a PTM
configuration, on the default software-RMA network, a hardware-RMA one
and one 100x slower; on a heterogeneous machine; A, A-nomask and B at
p = 5 and 8 under a set of fault plans; B over peptide-length
sequences, where some ranks start outside their own sender group; and
the X!!Tandem-like engine at p in {1, 2, 5, 8} under the REAL and the
MODELED configuration on the default network.

Per run it records the ``repr`` of ``virtual_time``, the
``TraceSummary`` totals, each rank's category totals, a SHA-256 (its
first 16 hex digits) over each rank's (category, start, duration)
events, ``peak_memory``, ``candidates_evaluated`` and the extras.  A
run that aborts (B's sort-phase crashes) records its typed error.  Hits
are left out (scores may differ across numpy versions) and so are event
detail strings.

Regenerate the golden file after a change that is *meant* to move
virtual time::

    PYTHONPATH=src python tests/integration/test_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.peptide import peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS, PAPER_NETWORK_BYTE_COST_S, PAPER_NETWORK_LATENCY_S
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import run_search
from repro.errors import DeadlockError
from repro.faults import FaultPlan, NicDegradation, RankCrash, Straggler, TransientFaults
from repro.simmpi.network import NetworkModel
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum
from repro.workloads.queries import QueryWorkload
from repro.workloads.synthetic import generate_database

GOLDEN = Path(__file__).with_name("data") / "sim_golden.json"

ALGORITHMS = ("algorithm_a", "algorithm_a_nomask", "algorithm_b", "master_worker")
RANKS = (1, 2, 3, 5, 8)
FAULT_ALGORITHMS = ("algorithm_a", "algorithm_a_nomask", "algorithm_b")
FAULT_RANKS = (5, 8)
XBANG_RANKS = (1, 2, 5, 8)

OXIDATION = STANDARD_MODIFICATIONS["oxidation"]
CONFIGS: Dict[str, SearchConfig] = {
    "real": SearchConfig(tau=5, scorer="shared_peaks"),
    "modeled": SearchConfig(tau=5, execution=ExecutionMode.MODELED),
    "ptm": SearchConfig(tau=5, delta=1.0, scorer="hyperscore", modifications=(OXIDATION,)),
    # peptide-length sequences and heavy queries: after B's sort some
    # ranks fall outside their own sender group and fetch their first
    # shard synchronously
    "short": SearchConfig(tau=5, scorer="shared_peaks", delta=25.0),
}
NETWORKS: Dict[str, NetworkModel] = {
    "software_rma": NetworkModel(),
    "hardware_rma": NetworkModel(software_rma=False),
    "slow": NetworkModel(
        latency=100 * PAPER_NETWORK_LATENCY_S, byte_cost=100 * PAPER_NETWORK_BYTE_COST_S
    ),
}
FAULTS = (
    "crash_mid_rotation",
    "two_crashes",
    "adjacent_chain",
    "straggler",
    "nic_degradation",
    "transient",
    "random0",
    "random1",
    "random2",
    "random3",
)


def run_ids() -> List[str]:
    ids = [
        f"{a}/p{p}/{c}/{n}"
        for a in ALGORITHMS
        for p in RANKS
        for c in ("real", "modeled", "ptm")
        for n in NETWORKS
    ]
    ids += [f"algorithm_b/p{p}/short/{n}" for p in (2, 3, 5) for n in ("software_rma", "hardware_rma")]
    ids += [f"{a}/p{p}/real/heterogeneous" for a in ALGORITHMS for p in RANKS if p > 1]
    ids += [f"{a}/p{p}/real/{f}" for a in FAULT_ALGORITHMS for p in FAULT_RANKS for f in FAULTS]
    ids += [f"xbang/p{p}/{c}/software_rma" for p in XBANG_RANKS for c in ("real", "modeled")]
    return ids


@lru_cache(maxsize=None)
def workload(config: str) -> Tuple[object, tuple]:
    if config == "short":
        rng = random.Random(3)
        db = ProteinDatabase.from_sequences(
            ["".join(rng.choice(AMINO_ACIDS) for _ in range(rng.randint(6, 30))) for _ in range(12)]
        )
        masses = [2000.0 + 150.0 * k for k in range(6)]
        return db, tuple(
            Spectrum(np.array([m / 4, m / 2]), np.ones(2), peptide_mz(m, 1), 1, k)
            for k, m in enumerate(masses)
        )
    db = generate_database(40, seed=23)
    mods = (OXIDATION,) if config == "ptm" else ()
    queries, _targets = QueryWorkload(
        num_queries=10, seed=7, source=db, modifications=mods,
        modified_fraction=0.5 if mods else 0.0,
    ).build()
    return db, tuple(queries)


def fault_plan(name: str, p: int, horizon: float, setup: float) -> FaultPlan:
    """The named plan for a run whose fault-free makespan is ``horizon``.

    The three crash plans strike inside the rotation, after ``setup``
    (Algorithm B's sort phase, which no crash survives); the random
    plans draw over the whole run and may hit B's sort phase.
    """

    def at(fraction: float) -> float:
        return setup + fraction * (horizon - setup)

    if name == "crash_mid_rotation":
        return FaultPlan(crashes=(RankCrash(p // 2, at(0.5)),))
    if name == "two_crashes":
        return FaultPlan(crashes=(RankCrash(1, at(0.4)), RankCrash(p - 2, at(0.7))))
    if name == "adjacent_chain":
        return FaultPlan(crashes=(RankCrash(2, at(0.5)), RankCrash(3, at(0.55))))
    if name == "straggler":
        return FaultPlan(stragglers=(Straggler(2, factor=0.25),))
    if name == "nic_degradation":
        return FaultPlan(nic_degradations=(NicDegradation(0, factor=0.05),))
    if name == "transient":
        return FaultPlan(transient=TransientFaults(probability=0.3, penalty=1e-3, seed=5))
    seed = int(name[len("random"):])
    return FaultPlan.random(seed, num_ranks=p, horizon=horizon)


def cluster_for(run_id: str) -> Tuple[str, int, str, ClusterConfig]:
    algorithm, rank_part, config, variant = run_id.split("/")
    p = int(rank_part[1:])
    if variant in NETWORKS:
        cluster = ClusterConfig(num_ranks=p, network=NETWORKS[variant], record_events=True)
    elif variant == "heterogeneous":
        speeds = tuple(1.0 if r % 2 == 0 else 0.5 + 0.1 * r for r in range(p))
        cluster = ClusterConfig(num_ranks=p, rank_speeds=speeds, record_events=True)
    else:
        plan = fault_plan(variant, p, *fault_free(algorithm, p))
        cluster = ClusterConfig(num_ranks=p, fault_plan=plan, record_events=True)
    return algorithm, p, config, cluster


@lru_cache(maxsize=None)
def fault_free(algorithm: str, p: int) -> Tuple[float, float]:
    """Makespan and sort time of the fault-free REAL run the plans scale to."""
    base = run_report(f"{algorithm}/p{p}/real/software_rma")
    return base.virtual_time, base.extras.get("sorting_time", 0.0)


def run_report(run_id: str):
    algorithm, p, config, cluster = cluster_for(run_id)
    db, queries = workload(config)
    return run_search(db, list(queries), algorithm, p, CONFIGS[config], cluster)


def _events_digest(events) -> str:
    h = hashlib.sha256()
    for category, start, duration, _detail in events:
        h.update(f"{category} {start!r} {duration!r}\n".encode())
    return h.hexdigest()[:16]


def record(run_id: str) -> dict:
    """Everything pinned for one run, as JSON-ready strings and numbers."""
    try:
        report = run_report(run_id)
    except DeadlockError as exc:
        return {"error": type(exc).__name__}
    pinned = {"virtual_time": repr(report.virtual_time)}
    t = report.trace
    if t is not None:  # master-worker at p = 1 is the serial search
        pinned["totals"] = [
            repr(x)
            for x in (
                t.makespan, t.total_compute, t.total_wait, t.total_collective,
                t.total_comm_issued, t.total_recovery, t.total_sweep,
            )
        ] + [[f.rank, repr(f.time)] for f in t.failures] + [t.transfer_retries, t.recovery_fetches]
        pinned["ranks"] = {
            str(r): [
                repr(x)
                for x in (tr.compute, tr.wait, tr.comm_issued, tr.collective, tr.recovery, tr.sweep)
            ] + [_events_digest(tr.events)]
            for r, tr in sorted(t.per_rank.items())
        }
    return {
        **pinned,
        "peak_memory": {str(r): int(m) for r, m in sorted(report.peak_memory.items())},
        "candidates_evaluated": int(report.candidates_evaluated),
        "extras": {k: repr(v) for k, v in sorted(report.extras.items())},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(run_ids())


@pytest.mark.parametrize("run_id", run_ids())
def test_virtual_time_unchanged(golden, run_id):
    assert record(run_id) == golden[run_id]


def test_sort_phase_crash_is_recorded_typed(golden):
    """B's sort-phase crashes abort with a typed error, pinned as such."""
    assert any(v == {"error": "DeadlockError"} for v in golden.values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {run_id: record(run_id) for run_id in run_ids()}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} runs to {GOLDEN}", file=sys.stderr)
