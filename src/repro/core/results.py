"""Search reports: the uniform output of every engine and algorithm."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.scoring.hits import Hit, TopHitList
from repro.simmpi.trace import TraceSummary


@dataclass
class SearchReport:
    """Everything one search run produced.

    Attributes:
        algorithm: which engine ran ("serial", "master_worker",
            "algorithm_a", "algorithm_a_nomask", "algorithm_b", "xbang").
        num_ranks: processor count p.
        hits: per-query top-tau hits (empty in MODELED execution).
        candidates_evaluated: total candidate evaluations across ranks.
        virtual_time: simulated parallel run-time (the makespan) — the
            number Table II reports.
        trace: per-rank timing breakdown (None for non-simmpi engines).
        peak_memory: per-rank peak bytes, for the space-claims tests.
        extras: algorithm-specific measurements (e.g. Algorithm B's
            ``sorting_time``).
    """

    algorithm: str
    num_ranks: int
    hits: Dict[int, List[Hit]]
    candidates_evaluated: int
    virtual_time: float
    trace: Optional[TraceSummary] = None
    peak_memory: Dict[int, int] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def candidates_per_second(self) -> float:
        """Table III's metric: candidate evaluations per virtual second."""
        return self.candidates_evaluated / self.virtual_time if self.virtual_time > 0 else 0.0

    @property
    def max_peak_memory(self) -> int:
        return max(self.peak_memory.values()) if self.peak_memory else 0

    def top_hit(self, query_id: int) -> Optional[Hit]:
        hits = self.hits.get(query_id)
        return hits[0] if hits else None

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize the report (hits, timings, memory) to JSON.

        Traces are summarized (totals only) rather than serialized in
        full; ``extras`` must be JSON-representable (ours are).
        """
        payload = {
            "algorithm": self.algorithm,
            "num_ranks": self.num_ranks,
            "candidates_evaluated": self.candidates_evaluated,
            "virtual_time": self.virtual_time,
            "peak_memory": {str(r): int(b) for r, b in self.peak_memory.items()},
            "extras": self.extras,
            "trace_totals": (
                {
                    "makespan": self.trace.makespan,
                    "total_compute": self.trace.total_compute,
                    "total_wait": self.trace.total_wait,
                    "total_collective": self.trace.total_collective,
                    "total_comm_issued": self.trace.total_comm_issued,
                }
                if self.trace is not None
                else None
            ),
            "hits": {
                str(qid): [
                    {
                        "score": h.score,
                        "protein_id": h.protein_id,
                        "start": h.start,
                        "stop": h.stop,
                        "mass": h.mass,
                        "mod_delta": h.mod_delta,
                    }
                    for h in hit_list
                ]
                for qid, hit_list in self.hits.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchReport":
        """Inverse of :meth:`to_json` (trace totals land in extras)."""
        payload = json.loads(text)
        hits = {
            int(qid): [
                Hit(
                    query_id=int(qid),
                    score=h["score"],
                    protein_id=h["protein_id"],
                    start=h["start"],
                    stop=h["stop"],
                    mass=h["mass"],
                    mod_delta=h.get("mod_delta", 0.0),
                )
                for h in hit_list
            ]
            for qid, hit_list in payload["hits"].items()
        }
        extras = dict(payload.get("extras", {}))
        if payload.get("trace_totals"):
            extras["trace_totals"] = payload["trace_totals"]
        return cls(
            algorithm=payload["algorithm"],
            num_ranks=payload["num_ranks"],
            hits=hits,
            candidates_evaluated=payload["candidates_evaluated"],
            virtual_time=payload["virtual_time"],
            peak_memory={int(r): b for r, b in payload.get("peak_memory", {}).items()},
            extras=extras,
        )


def write_tsv(report: SearchReport, path, database=None) -> None:
    """Write per-query identifications as tab-separated values.

    Columns: query_id, rank, score, protein, start, stop, mass,
    mod_delta, and — when the searched ``database`` is supplied —
    the matched peptide sequence.  This is the flat interchange format
    peptide-identification pipelines consume downstream.
    """
    header = "query_id\trank\tscore\tprotein\tstart\tstop\tmass\tmod_delta"
    protein = None
    if database is not None:
        header += "\tpeptide"
        # decode the residue buffer once; a hit's peptide is then a slice
        # of its protein's text
        text = database.residues.tobytes().decode("ascii")
        bounds = database.offsets.tolist()
        protein = {
            pid: text[a:b] for pid, a, b in zip(database.ids.tolist(), bounds, bounds[1:])
        }
    lines = [header]
    for qid in sorted(report.hits):
        for rank, (_q, score, pid, start, stop, mass, mod) in enumerate(report.hits[qid], 1):
            row = f"{qid}\t{rank}\t{score:.6f}\t{pid}\t{start}\t{stop}\t{mass:.4f}\t{mod:.4f}"
            if protein is not None:
                try:
                    row = f"{row}\t{protein[pid][start:stop]}"
                except KeyError:
                    row += "\t?"
            lines.append(row)
    lines.append("")
    payload = "\n".join(lines)
    if hasattr(path, "write"):
        path.write(payload)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(payload)


def merge_rank_hits(
    per_rank_hits: List[Dict[int, List[Hit]]], tau: int
) -> Dict[int, List[Hit]]:
    """Merge per-rank hit dictionaries into one global mapping.

    Query sets are disjoint across ranks in Algorithms A/B (queries stay
    put), but the master-worker baseline can reassign a query after a
    worker failure and the sub-group extension splits queries across
    groups, so merging tolerates overlap: duplicate query ids have their
    hit lists folded through a fresh top-tau filter.
    """
    merged: Dict[int, List[Hit]] = {}
    for rank_hits in per_rank_hits:
        for qid, hits in rank_hits.items():
            if qid not in merged:
                merged[qid] = list(hits)
            else:
                folded = TopHitList(tau)
                seen = set()
                for h in merged[qid] + list(hits):
                    key = (h.protein_id, h.start, h.stop, h.mod_delta)
                    if key in seen:
                        continue
                    seen.add(key)
                    folded.add(h)
                merged[qid] = folded.sorted_hits()
    return merged


def reports_equal(a: SearchReport, b: SearchReport, score_rtol: float = 0.0) -> bool:
    """The paper's validation predicate: identical hits per query.

    With ``score_rtol == 0`` this demands bitwise-equal scores, which our
    deterministic kernel achieves across serial and parallel runs.
    """
    if set(a.hits) != set(b.hits):
        return False
    for qid in a.hits:
        ha, hb = a.hits[qid], b.hits[qid]
        if len(ha) != len(hb):
            return False
        for x, y in zip(ha, hb):
            if (x.protein_id, x.start, x.stop, x.mod_delta) != (
                y.protein_id,
                y.start,
                y.stop,
                y.mod_delta,
            ):
                return False
            if score_rtol == 0.0:
                if x.score != y.score:
                    return False
            elif abs(x.score - y.score) > score_rtol * max(abs(x.score), abs(y.score), 1e-12):
                return False
    return True
