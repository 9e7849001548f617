"""Aggregate report: one comparative document for a whole grid.

The runner leaves one RunReport per cell on disk; this module folds them
into a single schema-versioned JSON payload (``repro.experiment_report/1``)
holding:

* a per-cell summary row (engine, ranks, virtual time, candidate
  counts, hit digest, fault block, report/trace paths);
* every table the spec declared — a rows x cols pivot of one summary
  value, optionally extended with the paper's speedup/efficiency
  derivation (real speedup where a 1-rank baseline exists, the Figure 4
  chained-anchor rule where it does not — ``repro.analysis.metrics``);
* cross-cell identity checks (cells agreeing on the ``group_by`` knobs
  must agree on ``hits_digest`` — the determinism contract the fault
  grids exist to exercise);
* the analytic lower-bound cross-check: the measured scaling next to
  the :mod:`repro.experiments.lower_bounds` overlap projection for the same
  workload, plus the paper's headline residual-to-compute statistic.

Everything here is a pure function of (spec, on-disk cell reports):
no clocks, no RNG, dict keys sorted at serialization — so rebuilding
the aggregate after a kill-and-resume yields byte-identical output,
which is the property the resume tests pin.

``format_ascii`` renders the payload for terminals, ``format_markdown``
for the checked-in docs; ``splice_markdown`` swaps generated sections
into EXPERIMENTS.md / REPRODUCTION_REPORT.md between
``<!-- experiments:NAME begin/end -->`` markers so the paper-comparison
tables in those files are provably regenerable, never hand-edited.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import chained_speedup, mean_and_std, speedup
from repro.experiments.spec import CellSpec, ExperimentSpec, TableSpec
from repro.obs.report import RunReport
from repro.utils.format import render_table

#: schema identifier; bump the trailing integer on breaking changes
AGGREGATE_SCHEMA = "repro.experiment_report/1"

#: the paper's measured residual-to-compute ratio (mean, std) — printed
#: next to ours in every lower-bounds section
PAPER_RESIDUAL_TO_COMPUTE = (0.36, 0.11)

_REQUIRED_KEYS = (
    "schema",
    "name",
    "spec_digest",
    "num_cells",
    "completed",
    "cells",
    "failed",
    "tables",
    "checks",
    "lower_bounds",
)


# ---------------------------------------------------------------------------
# building


def _cell_row(entry: Dict[str, Any]) -> Dict[str, Any]:
    cell: CellSpec = entry["cell"]
    report: Optional[RunReport] = entry["report"]
    row: Dict[str, Any] = {
        "id": cell.cell_id,
        "index": cell.index,
        "params": dict(cell.params),
        "report_path": entry["report_path"],
        "trace_path": entry["trace_path"],
        "error": entry["error"],
    }
    if report is None:
        return row
    row.update(
        {
            "algorithm": report.algorithm,
            "engine": report.engine,
            "num_ranks": report.num_ranks,
            "virtual_time": report.virtual_time,
            "candidates_evaluated": report.candidates_evaluated,
            "candidates_per_second": report.candidates_per_second,
            "results": dict(report.results),
            "faults": dict(report.faults),
            "hits_digest": report.extras.get("hits_digest"),
            "sorting_time": report.extras.get("sorting_time"),
            "residual_to_compute": (
                report.trace.get("mean_residual_to_compute") if report.trace else None
            ),
        }
    )
    return row


def _matches(params: Dict[str, Any], flt: Dict[str, Any]) -> bool:
    return all(params.get(k) == v for k, v in flt.items())


def _axis_value(params: Dict[str, Any], key: str) -> Any:
    """A cell's value for a pivot key, made JSON/hash-friendly.

    Cells that leave the knob unset (e.g. the no-fault arm of a
    ``faults.plan`` axis) land in a ``"(default)"`` bucket instead of
    being dropped; list values (rank_speeds) become strings so they can
    key a dict and render as a row label.
    """
    value = params.get(key)
    if value is None:
        return "(default)"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return value


def _pivot(
    table: TableSpec, rows: List[Dict[str, Any]]
) -> Tuple[List[Any], List[Any], Dict[Tuple[Any, Any], Dict[str, Any]]]:
    """First-seen-order row/col values + (row, col) -> cell row map.

    First match wins on collisions — cell order is spec order, so the
    pick is deterministic; a spec whose table is genuinely ambiguous
    should narrow it with ``filter``.
    """
    row_values: List[Any] = []
    col_values: List[Any] = []
    grid: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
    for row in rows:
        params = row["params"]
        if not _matches(params, table.filter):
            continue
        r, c = _axis_value(params, table.rows), _axis_value(params, table.cols)
        if r not in row_values:
            row_values.append(r)
        if c not in col_values:
            col_values.append(c)
        grid.setdefault((r, c), row)
    return row_values, col_values, grid


def _table_payload(table: TableSpec, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    row_values, col_values, grid = _pivot(table, rows)
    body = [
        {
            "row": r,
            "values": [
                (grid.get((r, c)) or {}).get(table.value) for c in col_values
            ],
        }
        for r in row_values
    ]
    payload: Dict[str, Any] = {
        "name": table.name,
        "rows": table.rows,
        "cols": table.cols,
        "value": table.value,
        "col_values": list(col_values),
        "grid": body,
        "scaling": None,
    }
    if table.scaling:
        payload["scaling"] = _scaling_payload(table, row_values, col_values, grid)
    return payload


def _scaling_payload(
    table: TableSpec,
    row_values: List[Any],
    col_values: List[Any],
    grid: Dict[Tuple[Any, Any], Dict[str, Any]],
) -> Dict[str, Any]:
    """Speedup/efficiency per row, columns read as rank counts.

    Rows with a 1-rank time use real speedup T(1)/T(p); rows without one
    use the paper's chained rule relative to ``anchor_rank``, scaled by
    the mean anchor speedup of the rows that do have a baseline
    (Figure 4's "multiplied by the average speedup obtained at p = 8
    ... 4.51").
    """
    times: Dict[Any, Dict[int, float]] = {}
    for r in row_values:
        per_rank: Dict[int, float] = {}
        for c in col_values:
            try:
                p = int(c)
            except (TypeError, ValueError):
                continue  # non-rank column (e.g. a "(default)" bucket)
            entry = grid.get((r, c))
            t = entry.get("virtual_time") if entry else None
            if t is not None and t > 0:
                per_rank[p] = float(t)
        if per_rank:
            times[r] = per_rank
    anchor = table.anchor_rank
    anchored = [
        speedup(t[1], t[anchor]) for t in times.values() if 1 in t and anchor in t
    ]
    anchor_speedup = sum(anchored) / len(anchored) if anchored else float(anchor)
    points: List[Dict[str, Any]] = []
    for r in row_values:
        per_rank = times.get(r, {})
        for p in sorted(per_rank):
            if 1 in per_rank:
                s = speedup(per_rank[1], per_rank[p])
                rule = "real"
            elif anchor in per_rank:
                s = chained_speedup(per_rank[anchor], per_rank[p], anchor_speedup)
                rule = "chained"
            else:
                continue
            points.append(
                {
                    "row": r,
                    "ranks": p,
                    "run_time": per_rank[p],
                    "speedup": s,
                    "efficiency": s / p,
                    "rule": rule,
                }
            )
    return {
        "anchor_rank": anchor,
        "anchor_speedup": anchor_speedup,
        "points": points,
    }


def _check_payload(spec: ExperimentSpec, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for check in spec.checks:
        groups: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            value = row.get(check.field)
            if value is None:
                continue  # modeled cells carry no hits, hence no digest
            key = {k: row["params"].get(k) for k in check.group_by}
            key_str = ",".join(f"{k}={key[k]}" for k in check.group_by) or "(all)"
            group = groups.setdefault(
                key_str, {"key": key, "cells": [], "values": []}
            )
            group["cells"].append(row["id"])
            if value not in group["values"]:
                group["values"].append(value)
        group_rows = [
            {**g, "ok": len(g["values"]) <= 1} for g in groups.values()
        ]
        out.append(
            {
                "name": check.name,
                "field": check.field,
                "group_by": list(check.group_by),
                "groups": group_rows,
                "ok": all(g["ok"] for g in group_rows),
            }
        )
    return out


def _lower_bounds_payload(
    spec: ExperimentSpec, rows: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Analytic floors for the grid's workload, next to what we measured.

    The projection is recomputed from the spec (deterministically — the
    profile counts candidates, it never times anything), so ``report``
    can rebuild this section from disk artifacts alone.
    """
    section = spec.lower_bounds
    if section is None:
        return None
    from repro.experiments.runner import build_config, build_workload  # lazy: no cycle
    from repro.experiments.lower_bounds import overlap_projection, profile_workload
    from repro.experiments.spec import BASE_DEFAULTS

    params = dict(BASE_DEFAULTS)
    params.update(spec.defaults)
    if "database_size" in section:
        params["workload.database_size"] = section["database_size"]
    db, queries = build_workload(params)
    config = build_config(params)
    profile = profile_workload(db, queries, config)
    projection = overlap_projection(profile, ranks=section["ranks"])

    measured: List[Dict[str, Any]] = []
    residuals: List[float] = []
    for row in rows:
        if row.get("residual_to_compute") is None:
            continue
        residuals.append(row["residual_to_compute"])
        # a floor only bounds cells searching the workload it was
        # projected for; other sizes keep their residual stat but are
        # not compared against it
        if row["params"].get("workload.database_size") != params[
            "workload.database_size"
        ] or row["params"].get("workload.queries") != params["workload.queries"]:
            continue
        p = row["num_ranks"]
        point = projection["points"].get(str(p))
        if point is None:
            continue  # no floor projected at this rank count
        floor = point["floor_makespan_s"]
        measured.append(
            {
                "cell": row["id"],
                "ranks": p,
                "makespan_s": row["virtual_time"],
                "residual_to_compute": row["residual_to_compute"],
                "floor_makespan_s": floor,
                "makespan_to_floor": row["virtual_time"] / floor,
            }
        )
    mean, std = mean_and_std(residuals)
    return {
        "model": projection["model"],
        "database_size": params["workload.database_size"],
        "queries": params["workload.queries"],
        "ranks": section["ranks"],
        "points": projection["points"],
        "measured": measured,
        "residual_to_compute": {
            "mean": mean,
            "std": std,
            "cells": len(residuals),
            "paper": list(PAPER_RESIDUAL_TO_COMPUTE),
        },
    }


def build_aggregate(
    spec: ExperimentSpec, entries: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold per-cell entries into the ``repro.experiment_report/1`` payload.

    ``entries`` is one dict per cell in spec order: ``cell`` (CellSpec),
    ``report`` (RunReport or None), ``report_path``, ``trace_path``,
    ``error`` (None when the cell succeeded).
    """
    rows = [_cell_row(e) for e in entries]
    completed = [r for r in rows if r["error"] is None and "virtual_time" in r]
    failed = [
        {"id": r["id"], "index": r["index"], "error": r["error"]}
        for r in rows
        if r["error"] is not None
    ]
    return {
        "schema": AGGREGATE_SCHEMA,
        "name": spec.name,
        "description": spec.description,
        "source": spec.source,
        "spec_digest": spec.digest(),
        "num_cells": len(rows),
        "completed": len(completed),
        "cells": rows,
        "failed": failed,
        "tables": [_table_payload(t, completed) for t in spec.tables],
        "checks": _check_payload(spec, completed),
        "lower_bounds": _lower_bounds_payload(spec, completed),
    }


# ---------------------------------------------------------------------------
# validation


def validate_aggregate(payload: Any) -> List[str]:
    """Schema check; returns a list of problems (empty == valid)."""
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    problems = [f"missing key {k!r}" for k in _REQUIRED_KEYS if k not in payload]
    if problems:
        return problems
    schema = payload["schema"]
    if not isinstance(schema, str) or not schema.startswith("repro.experiment_report/"):
        problems.append(f"unrecognized schema {schema!r}")
    elif schema != AGGREGATE_SCHEMA:
        problems.append(
            f"unsupported schema version {schema!r} (expected {AGGREGATE_SCHEMA})"
        )
    for key in ("cells", "failed", "tables", "checks"):
        if not isinstance(payload[key], list):
            problems.append(f"{key} must be a list")
    if not isinstance(payload["num_cells"], int) or payload["num_cells"] < 1:
        problems.append("num_cells must be a positive int")
    if not isinstance(payload["completed"], int) or payload["completed"] < 0:
        problems.append("completed must be a non-negative int")
    if payload["lower_bounds"] is not None and not isinstance(
        payload["lower_bounds"], dict
    ):
        problems.append("lower_bounds must be null or an object")
    if not problems:
        for k, cell in enumerate(payload["cells"]):
            if not isinstance(cell, dict) or "id" not in cell or "params" not in cell:
                problems.append(f"cells[{k}] is not a cell summary object")
        for k, table in enumerate(payload["tables"]):
            if not isinstance(table, dict) or "grid" not in table:
                problems.append(f"tables[{k}] is not a table object")
    return problems


# ---------------------------------------------------------------------------
# rendering


def _fmt_value(value: Any, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "candidates_evaluated":
        return str(int(value))
    if kind == "candidates_per_second":
        return f"{value:.0f}"
    if kind == "sorting_time":
        return f"{value:.3f}"
    return f"{value:.2f}"


def _table_blocks(table: Dict[str, Any]) -> List[Tuple[str, List[str], List[List[str]]]]:
    """(title, headers, rows) for the pivot and optional scaling block."""
    blocks: List[Tuple[str, List[str], List[List[str]]]] = []
    headers = [table["rows"]] + [str(c) for c in table["col_values"]]
    body = [
        [str(entry["row"])] + [_fmt_value(v, table["value"]) for v in entry["values"]]
        for entry in table["grid"]
    ]
    blocks.append((f"{table['name']} ({table['value']} by {table['cols']})", headers, body))
    scaling = table.get("scaling")
    if scaling:
        headers = [table["rows"], "p", "Run-time (s)", "Speedup", "Efficiency (%)", "Rule"]
        body = [
            [
                str(pt["row"]),
                str(pt["ranks"]),
                f"{pt['run_time']:.2f}",
                f"{pt['speedup']:.2f}",
                f"{100 * pt['efficiency']:.1f}",
                pt["rule"],
            ]
            for pt in scaling["points"]
        ]
        blocks.append(
            (
                f"{table['name']}: speedup/efficiency "
                f"(anchor p={scaling['anchor_rank']}, "
                f"anchor speedup {scaling['anchor_speedup']:.2f})",
                headers,
                body,
            )
        )
    return blocks


def _lower_bounds_blocks(
    lb: Dict[str, Any]
) -> Tuple[str, List[Tuple[str, List[str], List[List[str]]]], str]:
    """(heading, [(title, headers, rows)], residual summary) for both renderers."""
    heading = (
        f"Lower-bound cross-check ({lb['model']}; "
        f"n={lb['database_size']}, m={lb['queries']})"
    )
    headers = ["p", "Floor makespan (s)", "Overlap eff.", "Residual/compute"]
    body = [
        [
            str(p),
            f"{pt['floor_makespan_s']:.2f}",
            f"{pt['overlap_efficiency']:.2f}",
            f"{pt['residual_to_compute']:.2f}",
        ]
        for p, pt in sorted(lb["points"].items(), key=lambda kv: int(kv[0]))
    ]
    blocks = [("analytic floors", headers, body)]
    if lb["measured"]:
        headers = ["cell", "p", "Makespan (s)", "Floor (s)", "x floor", "Residual/compute"]
        body = [
            [
                m["cell"],
                str(m["ranks"]),
                f"{m['makespan_s']:.2f}",
                f"{m['floor_makespan_s']:.2f}",
                f"{m['makespan_to_floor']:.2f}",
                f"{m['residual_to_compute']:.2f}",
            ]
            for m in lb["measured"]
        ]
        blocks.append(("measured vs. floor", headers, body))
    r = lb["residual_to_compute"]
    summary = (
        f"Measured residual-to-compute {r['mean']:.2f} ± {r['std']:.2f} "
        f"across {r['cells']} traced cells (paper: "
        f"{r['paper'][0]:.2f} ± {r['paper'][1]:.2f})."
    )
    return heading, blocks, summary


def _cells_block(aggregate: Dict[str, Any]) -> Tuple[List[str], List[List[str]]]:
    headers = ["cell", "engine", "algorithm", "p", "Time (s)", "Candidates", "Faults"]
    body = []
    for cell in aggregate["cells"]:
        if cell.get("error") is not None:
            body.append([cell["id"], "-", "-", "-", "-", "-", "FAILED"])
            continue
        faults = cell.get("faults") or {}
        body.append(
            [
                cell["id"],
                cell.get("engine", "-"),
                cell.get("algorithm", "-"),
                str(cell.get("num_ranks", "-")),
                f"{cell['virtual_time']:.2f}",
                str(cell["candidates_evaluated"]),
                "degraded" if faults.get("degraded") else "none",
            ]
        )
    return headers, body


def format_ascii(aggregate: Dict[str, Any]) -> str:
    """Terminal rendering of an aggregate payload."""
    lines = [
        f"experiment: {aggregate['name']}",
    ]
    if aggregate.get("description"):
        lines.append(f"  {aggregate['description']}")
    lines.append(
        f"  cells: {aggregate['completed']}/{aggregate['num_cells']} completed"
        + (f", {len(aggregate['failed'])} FAILED" if aggregate["failed"] else "")
    )
    lines.append(f"  spec digest: {aggregate['spec_digest'][:16]}")
    for failure in aggregate["failed"]:
        lines.append(f"  FAILED {failure['id']}: {failure['error']}")
    traced = [c for c in aggregate["cells"] if c.get("trace_path")]
    if traced:
        lines.append(
            "  chrome traces: "
            + ", ".join(c["trace_path"] for c in traced[:4])
            + (f" (+{len(traced) - 4} more)" if len(traced) > 4 else "")
        )
    headers, body = _cells_block(aggregate)
    lines.append("")
    lines.append(render_table(headers, body, title="cells"))
    for table in aggregate["tables"]:
        for title, headers, body in _table_blocks(table):
            lines.append("")
            lines.append(render_table(headers, body, title=title))
    for check in aggregate["checks"]:
        lines.append("")
        status = "ok" if check["ok"] else "FAILED"
        lines.append(
            f"check {check['name']} ({check['field']} per "
            f"{','.join(check['group_by']) or 'grid'}): {status}"
        )
        for group in check["groups"]:
            if not group["ok"]:
                lines.append(
                    f"  MISMATCH {group['key']}: cells {group['cells']} "
                    f"disagree ({len(group['values'])} distinct values)"
                )
    if aggregate["lower_bounds"]:
        heading, blocks, summary = _lower_bounds_blocks(aggregate["lower_bounds"])
        lines.extend(["", heading])
        for title, headers, body in blocks:
            lines.append(render_table(headers, body, title=title))
        lines.append(summary)
    return "\n".join(lines)


def _md_table(headers: List[str], body: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return lines


def format_markdown(aggregate: Dict[str, Any]) -> str:
    """Markdown rendering — the emitter behind ``--format markdown``.

    Every block opens with a provenance line naming the scenario and
    spec digest, so a reader of EXPERIMENTS.md can regenerate the exact
    bytes with one command.
    """
    source = aggregate.get("source") or "the scenario file"
    lines = [
        f"Generated by `repro experiments report --format markdown` from "
        f"`{source}` (spec digest `{aggregate['spec_digest'][:16]}`, "
        f"{aggregate['completed']}/{aggregate['num_cells']} cells). "
        f"Do not hand-edit between the markers; rerun the scenario instead.",
        "",
    ]
    for failure in aggregate["failed"]:
        lines.append(f"**FAILED** `{failure['id']}`: {failure['error']}")
        lines.append("")
    if not aggregate["tables"]:
        headers, body = _cells_block(aggregate)
        lines.extend(_md_table(headers, body))
        lines.append("")
    for table in aggregate["tables"]:
        for title, headers, body in _table_blocks(table):
            lines.append(f"**{title}**")
            lines.append("")
            lines.extend(_md_table(headers, body))
            lines.append("")
    for check in aggregate["checks"]:
        status = "ok" if check["ok"] else "**FAILED**"
        lines.append(
            f"- check `{check['name']}` ({check['field']} per "
            f"{','.join(check['group_by']) or 'grid'}): {status}"
        )
    if aggregate["checks"]:
        lines.append("")
    if aggregate["lower_bounds"]:
        heading, blocks, summary = _lower_bounds_blocks(aggregate["lower_bounds"])
        lines.extend([f"**{heading}**", ""])
        for title, headers, body in blocks:
            lines.extend([f"*{title}*", ""])
            lines.extend(_md_table(headers, body))
            lines.append("")
        lines.extend([summary, ""])
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# markdown splicing


def _markers(name: str) -> Tuple[str, str]:
    return (
        f"<!-- experiments:{name} begin -->",
        f"<!-- experiments:{name} end -->",
    )


def splice_markdown(document: str, name: str, content: str) -> str:
    """Replace the ``experiments:name`` marker block of ``document``.

    The markers and everything between them are replaced with the
    markers wrapping ``content``; a document without the markers gets
    the block appended.  This is how generated sections live inside
    otherwise hand-written files: reruns touch only their own block.
    """
    begin, end = _markers(name)
    block = f"{begin}\n{content.rstrip()}\n{end}"
    start = document.find(begin)
    stop = document.find(end)
    if start == -1 or stop == -1 or stop < start:
        base = document.rstrip("\n")
        if base:
            return f"{base}\n\n{block}\n"
        return block + "\n"
    return document[:start] + block + document[stop + len(end):]


def extract_markdown(document: str, name: str) -> Optional[str]:
    """The content currently between the ``experiments:name`` markers."""
    begin, end = _markers(name)
    start = document.find(begin)
    stop = document.find(end)
    if start == -1 or stop == -1 or stop < start:
        return None
    inner = document[start + len(begin):stop]
    return inner.strip("\n")
