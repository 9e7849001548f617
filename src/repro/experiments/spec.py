"""Declarative scenario specs: one file describes a whole experiment grid.

A scenario spec is pure data — *which cells to run and how to report
them* — in the vivarium style: the cross product of a few declared axes,
plus explicitly listed extra cells, each cell a full description of one
search run (workload x engine x config x fault plan x index mode).  The
runner (:mod:`repro.experiments.runner`) executes the grid; the spec
never runs anything itself, so parsing and validation are instant and a
malformed scenario fails before any work starts.

Shape (YAML or the equivalent dict)::

    schema: repro.experiment_spec/1
    name: paper_tables
    description: Table II / Table III / Figure 4 grid
    defaults:                      # the base cell every cell starts from
      workload: {database_size: 1000, queries: 1210}
      config:   {execution: modeled}
    axes:                          # cross product, declaration order
      workload.database_size: [1000, 2000, 4000]
      engine.ranks: [1, 2, 4, 8]
    cells:                         # explicit extra cells (no product)
      - id: big
        workload.database_size: 16000
        engine.ranks: 128
    fault_plans:                   # named plans cells reference
      crash2: {crashes: [{rank: 2, time: 1.0}]}
    tables:                        # aggregation instructions
      - name: runtime
        rows: workload.database_size
        cols: engine.ranks
        value: virtual_time
        scaling: true              # add speedup/efficiency rows
    checks:                        # cross-cell assertions
      - name: faults_preserve_hits
        group_by: [workload.database_size]
        field: hits_digest
    lower_bounds:                  # analytic-floor cross-check
      ranks: [8, 32, 128]

Keys inside ``defaults``/``cells`` entries may be written nested
(``engine: {ranks: 8}``) or dotted (``engine.ranks: 8``); both flatten
to the same knob and writing the *same* leaf both ways in one mapping is
a :class:`~repro.errors.ExperimentSpecError` (conflicting overrides).
An axis key is either a dotted leaf or a bare group name whose values
are dict patches; values may be wrapped as ``{label, value}`` to name
grid points (labels become part of the cell id).

See docs/experiments.md for the full field reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentSpecError, FaultPlanError
from repro.faults.plan import FaultPlan

#: schema identifier; bump the trailing integer on breaking changes
SPEC_SCHEMA = "repro.experiment_spec/1"

#: every knob a cell may set, by group.  Unknown keys are typos caught
#: at parse time, not KeyErrors 40 minutes into a grid.
GROUP_FIELDS: Dict[str, Tuple[str, ...]] = {
    "workload": (
        "database_size",
        "queries",
        "seed",
        "query_seed",
        "source_size",
        "decoy_fraction",
        "min_length",
        "max_length",
        "charges",
    ),
    "engine": ("algorithm", "ranks", "query_blocks", "start_method", "rank_speeds"),
    "config": (
        "scorer",
        "delta",
        "tau",
        "execution",
        "sweep_cohort",
        "fragment_tolerance",
        "min_candidate_length",
    ),
    "faults": ("plan",),
    "index": ("mode", "partition_mb", "memory_budget_mb"),
}

#: cell defaults applied under the spec's own ``defaults``
BASE_DEFAULTS: Dict[str, Any] = {
    "workload.database_size": 1000,
    "workload.queries": 100,
    "workload.seed": 202,
    "workload.query_seed": 17,
    "engine.algorithm": "algorithm_a",
    "engine.ranks": 1,
    "index.mode": "none",
}

#: engines a cell may name: every simulated algorithm, the real
#: process-parallel engine, and "autotune" ("run whatever
#: ``core.driver.choose_plan`` picks" — the serving scenario's last arm)
_EXTRA_ENGINES = ("multiproc", "autotune")

_INDEX_MODES = ("none", "resident", "partitioned")

#: metrics a table's ``value`` may select from a cell summary
TABLE_VALUES = (
    "virtual_time",
    "candidates_evaluated",
    "candidates_per_second",
    "sorting_time",
)

_ID_SAFE = re.compile(r"[^A-Za-z0-9_.+-]+")


def _known_engines() -> Tuple[str, ...]:
    from repro.core.driver import ALGORITHMS

    return tuple(sorted(ALGORITHMS)) + _EXTRA_ENGINES


def _flatten(
    mapping: Mapping[str, Any], where: str, prefix: str = ""
) -> Dict[str, Any]:
    """Normalize nested/dotted knob mappings to flat dotted keys.

    ``{"engine": {"ranks": 8}}`` and ``{"engine.ranks": 8}`` both become
    ``{"engine.ranks": 8}``; setting one leaf through both spellings in
    the same mapping is a conflict, not a silent last-wins.
    """
    if not isinstance(mapping, Mapping):
        raise ExperimentSpecError(f"{where} must be a mapping, got {type(mapping).__name__}")
    flat: Dict[str, Any] = {}
    for raw_key, value in mapping.items():
        if not isinstance(raw_key, str):
            raise ExperimentSpecError(f"{where}: key {raw_key!r} is not a string")
        key = f"{prefix}{raw_key}"
        group = key.split(".", 1)[0]
        if isinstance(value, Mapping) and group in GROUP_FIELDS and "." not in key:
            sub = _flatten(value, where, prefix=f"{key}.")
            for leaf, leaf_value in sub.items():
                if leaf in flat:
                    raise ExperimentSpecError(
                        f"{where}: conflicting overrides for {leaf!r} "
                        f"(set both nested and dotted)"
                    )
                flat[leaf] = leaf_value
            continue
        _check_field(key, where)
        if key in flat:
            raise ExperimentSpecError(
                f"{where}: conflicting overrides for {key!r} "
                f"(set both nested and dotted)"
            )
        flat[key] = value
    return flat


def _check_field(key: str, where: str) -> None:
    group, _, leaf = key.partition(".")
    if group not in GROUP_FIELDS:
        raise ExperimentSpecError(
            f"{where}: unknown group {group!r} in key {key!r}; "
            f"expected one of {sorted(GROUP_FIELDS)}"
        )
    if not leaf:
        raise ExperimentSpecError(
            f"{where}: {key!r} names a whole group; set a field like "
            f"{group}.{GROUP_FIELDS[group][0]} or pass a mapping of fields"
        )
    if leaf not in GROUP_FIELDS[group]:
        raise ExperimentSpecError(
            f"{where}: unknown field {leaf!r} in group {group!r}; "
            f"expected one of {sorted(GROUP_FIELDS[group])}"
        )


def _slug(text: Any) -> str:
    out = _ID_SAFE.sub("-", str(text)).strip("-")
    return out or "x"


@dataclass(frozen=True)
class AxisValue:
    """One grid point of one axis: a label and the patch it applies."""

    label: str
    patch: Dict[str, Any]  # flat dotted keys


@dataclass(frozen=True)
class Axis:
    """One declared axis: a key and its ordered values."""

    key: str  # dotted leaf, or bare group name for patch-valued axes
    values: Tuple[AxisValue, ...]

    @property
    def short(self) -> str:
        return self.key.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class TableSpec:
    """One aggregation table over the grid."""

    name: str
    rows: str
    cols: str
    value: str = "virtual_time"
    scaling: bool = False
    anchor_rank: int = 8
    filter: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckSpec:
    """A cross-cell assertion: cells agreeing on ``group_by`` must agree
    on ``field`` (the determinism/identity contract, machine-checked)."""

    name: str
    group_by: Tuple[str, ...]
    field: str = "hits_digest"


@dataclass(frozen=True)
class CellSpec:
    """One fully merged grid cell, ready to execute."""

    index: int
    cell_id: str
    params: Dict[str, Any]  # flat dotted key -> value

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def group(self, name: str) -> Dict[str, Any]:
        """The ``name.*`` params with the prefix stripped."""
        prefix = name + "."
        return {
            k[len(prefix):]: v for k, v in self.params.items() if k.startswith(prefix)
        }


class ExperimentSpec:
    """A parsed, validated scenario — see the module docstring."""

    def __init__(self, payload: Mapping[str, Any], source: Optional[str] = None):
        if not isinstance(payload, Mapping):
            raise ExperimentSpecError(
                f"spec must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "schema",
            "name",
            "description",
            "defaults",
            "axes",
            "cells",
            "fault_plans",
            "tables",
            "checks",
            "lower_bounds",
            "trace",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ExperimentSpecError(
                f"unknown top-level key(s) {unknown}; expected a subset of {sorted(known)}"
            )
        schema = payload.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ExperimentSpecError(
                f"unsupported spec schema {schema!r} (expected {SPEC_SCHEMA})"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ExperimentSpecError("spec needs a non-empty string 'name'")
        self.source = source
        self.name = name
        self.description = str(payload.get("description", ""))
        self.trace = bool(payload.get("trace", False))
        self.defaults = _flatten(payload.get("defaults", {}), "defaults")
        self.fault_plans = self._parse_fault_plans(payload.get("fault_plans", {}))
        self.axes = self._parse_axes(payload.get("axes", {}))
        self.extra_cells = self._parse_extra_cells(payload.get("cells", []))
        if not self.axes and not self.extra_cells:
            raise ExperimentSpecError(
                "spec describes no cells: declare 'axes' and/or explicit 'cells'"
            )
        self.tables = self._parse_tables(payload.get("tables", []))
        self.checks = self._parse_checks(payload.get("checks", []))
        self.lower_bounds = self._parse_lower_bounds(payload.get("lower_bounds"))
        self._payload = _canonical(payload)
        self._cells = self._build_cells()

    # -- section parsers --------------------------------------------------

    def _parse_fault_plans(self, section: Any) -> Dict[str, FaultPlan]:
        if not isinstance(section, Mapping):
            raise ExperimentSpecError("fault_plans must be a mapping of name -> plan")
        plans: Dict[str, FaultPlan] = {}
        for plan_name, plan_payload in section.items():
            if not isinstance(plan_payload, Mapping):
                raise ExperimentSpecError(
                    f"fault_plans[{plan_name!r}] must be a mapping"
                )
            try:
                plans[str(plan_name)] = FaultPlan.from_json(
                    json.dumps(_canonical(plan_payload))
                )
            except (FaultPlanError, TypeError) as exc:
                raise ExperimentSpecError(
                    f"fault_plans[{plan_name!r}] is not a valid fault plan: {exc}"
                ) from exc
        return plans

    def _parse_axes(self, section: Any) -> Tuple[Axis, ...]:
        if not isinstance(section, Mapping):
            raise ExperimentSpecError("axes must be a mapping of key -> value list")
        axes: List[Axis] = []
        claimed: Dict[str, str] = {}  # leaf -> axis key that set it
        for key, raw_values in section.items():
            if not isinstance(key, str):
                raise ExperimentSpecError(f"axes: key {key!r} is not a string")
            group_axis = key in GROUP_FIELDS
            if not group_axis:
                _check_field(key, "axes")
            if not isinstance(raw_values, Sequence) or isinstance(raw_values, (str, bytes)):
                raise ExperimentSpecError(
                    f"axes[{key!r}] must be a list of values, got {raw_values!r}"
                )
            if not raw_values:
                raise ExperimentSpecError(f"axes[{key!r}] is empty")
            values: List[AxisValue] = []
            for raw in raw_values:
                label, value = raw, raw
                if isinstance(raw, Mapping):
                    if set(raw) == {"label", "value"}:
                        label, value = raw["label"], raw["value"]
                    elif group_axis:
                        label, value = None, raw
                    else:
                        raise ExperimentSpecError(
                            f"axes[{key!r}]: mapping values must be "
                            f"{{label, value}} wrappers (got keys {sorted(raw)})"
                        )
                if group_axis:
                    if not isinstance(value, Mapping):
                        raise ExperimentSpecError(
                            f"axes[{key!r}] is a group axis; each value must be a "
                            f"mapping of {key}.* fields, got {value!r}"
                        )
                    patch = _flatten(dict(value), f"axes[{key!r}]", prefix=f"{key}.")
                    if label is None:
                        label = "-".join(_slug(v) for v in patch.values())
                else:
                    patch = {key: value}
                values.append(AxisValue(label=_slug(label), patch=dict(patch)))
            leaves = set().union(*(set(v.patch) for v in values))
            for leaf in sorted(leaves):
                if leaf in claimed:
                    raise ExperimentSpecError(
                        f"axes: {leaf!r} is set by both axis {claimed[leaf]!r} "
                        f"and axis {key!r} (conflicting overrides)"
                    )
                claimed[leaf] = key
            axes.append(Axis(key=key, values=tuple(values)))
        return tuple(axes)

    def _parse_extra_cells(self, section: Any) -> Tuple[Tuple[Optional[str], Dict[str, Any]], ...]:
        if not isinstance(section, Sequence) or isinstance(section, (str, bytes)):
            raise ExperimentSpecError("cells must be a list of override mappings")
        out: List[Tuple[Optional[str], Dict[str, Any]]] = []
        for k, entry in enumerate(section):
            if not isinstance(entry, Mapping):
                raise ExperimentSpecError(f"cells[{k}] must be a mapping")
            entry = dict(entry)
            cell_id = entry.pop("id", None)
            if cell_id is not None and (not isinstance(cell_id, str) or not cell_id):
                raise ExperimentSpecError(f"cells[{k}]: id must be a non-empty string")
            out.append((cell_id, _flatten(entry, f"cells[{k}]")))
        return tuple(out)

    def _parse_tables(self, section: Any) -> Tuple[TableSpec, ...]:
        if not isinstance(section, Sequence) or isinstance(section, (str, bytes)):
            raise ExperimentSpecError("tables must be a list of table mappings")
        axis_keys = {a.key for a in self.axes}
        for axis in self.axes:  # group axes also expose their leaves
            axis_keys.update(k for v in axis.values for k in v.patch)
        for _, overrides in self.extra_cells:  # explicit cells vary knobs too
            axis_keys.update(overrides)
        tables: List[TableSpec] = []
        for k, entry in enumerate(section):
            if not isinstance(entry, Mapping):
                raise ExperimentSpecError(f"tables[{k}] must be a mapping")
            unknown = sorted(
                set(entry) - {"name", "rows", "cols", "value", "scaling", "anchor_rank", "filter"}
            )
            if unknown:
                raise ExperimentSpecError(f"tables[{k}]: unknown key(s) {unknown}")
            try:
                table = TableSpec(
                    name=str(entry["name"]),
                    rows=str(entry["rows"]),
                    cols=str(entry["cols"]),
                    value=str(entry.get("value", "virtual_time")),
                    scaling=bool(entry.get("scaling", False)),
                    anchor_rank=int(entry.get("anchor_rank", 8)),
                    filter=_flatten(entry.get("filter", {}), f"tables[{k}].filter"),
                )
            except KeyError as exc:
                raise ExperimentSpecError(f"tables[{k}]: missing key {exc}") from None
            for side in ("rows", "cols"):
                key = getattr(table, side)
                _check_field(key, f"tables[{k}].{side}")
                if key not in axis_keys and key not in self.defaults:
                    raise ExperimentSpecError(
                        f"tables[{k}]: {side} key {key!r} is not an axis of this "
                        f"grid (axes: {sorted(axis_keys) or 'none'})"
                    )
            if table.value not in TABLE_VALUES:
                raise ExperimentSpecError(
                    f"tables[{k}]: unknown value {table.value!r}; "
                    f"expected one of {list(TABLE_VALUES)}"
                )
            if table.scaling and table.value != "virtual_time":
                raise ExperimentSpecError(
                    f"tables[{k}]: scaling (speedup/efficiency) needs "
                    f"value=virtual_time, got {table.value!r}"
                )
            tables.append(table)
        return tuple(tables)

    def _parse_checks(self, section: Any) -> Tuple[CheckSpec, ...]:
        if not isinstance(section, Sequence) or isinstance(section, (str, bytes)):
            raise ExperimentSpecError("checks must be a list of check mappings")
        checks: List[CheckSpec] = []
        for k, entry in enumerate(section):
            if not isinstance(entry, Mapping):
                raise ExperimentSpecError(f"checks[{k}] must be a mapping")
            unknown = sorted(set(entry) - {"name", "group_by", "field"})
            if unknown:
                raise ExperimentSpecError(f"checks[{k}]: unknown key(s) {unknown}")
            group_by = entry.get("group_by", [])
            if not isinstance(group_by, Sequence) or isinstance(group_by, (str, bytes)):
                raise ExperimentSpecError(f"checks[{k}]: group_by must be a list of keys")
            for key in group_by:
                _check_field(str(key), f"checks[{k}].group_by")
            checks.append(
                CheckSpec(
                    name=str(entry.get("name", f"check{k}")),
                    group_by=tuple(str(g) for g in group_by),
                    field=str(entry.get("field", "hits_digest")),
                )
            )
        return tuple(checks)

    def _parse_lower_bounds(self, section: Any) -> Optional[Dict[str, Any]]:
        if section is None:
            return None
        if not isinstance(section, Mapping):
            raise ExperimentSpecError("lower_bounds must be a mapping")
        unknown = sorted(set(section) - {"ranks", "database_size"})
        if unknown:
            raise ExperimentSpecError(f"lower_bounds: unknown key(s) {unknown}")
        ranks = section.get("ranks", [128, 512, 1024])
        if (
            not isinstance(ranks, Sequence)
            or isinstance(ranks, (str, bytes))
            or not ranks
            or not all(isinstance(p, int) and p >= 1 for p in ranks)
        ):
            raise ExperimentSpecError(
                f"lower_bounds.ranks must be a non-empty list of positive ints, got {ranks!r}"
            )
        out: Dict[str, Any] = {"ranks": [int(p) for p in ranks]}
        if "database_size" in section:
            n = section["database_size"]
            if not isinstance(n, int) or n < 1:
                raise ExperimentSpecError(
                    f"lower_bounds.database_size must be a positive int, got {n!r}"
                )
            out["database_size"] = n
        return out

    # -- cell construction -------------------------------------------------

    def _build_cells(self) -> Tuple[CellSpec, ...]:
        cells: List[CellSpec] = []
        seen_ids: Dict[str, int] = {}

        def add(cell_id: str, params: Dict[str, Any]) -> None:
            if cell_id in seen_ids:
                raise ExperimentSpecError(
                    f"duplicate cell id {cell_id!r} (cells {seen_ids[cell_id]} "
                    f"and {len(cells)}); rename axis labels or explicit ids"
                )
            seen_ids[cell_id] = len(cells)
            self._validate_cell(cell_id, params)
            cells.append(CellSpec(index=len(cells), cell_id=cell_id, params=params))

        if self.axes:
            for combo in itertools.product(*(a.values for a in self.axes)):
                params = dict(BASE_DEFAULTS)
                params.update(self.defaults)
                for value in combo:
                    params.update(value.patch)
                cell_id = "__".join(
                    f"{axis.short}-{value.label}"
                    for axis, value in zip(self.axes, combo)
                )
                add(cell_id, params)
        for k, (explicit_id, overrides) in enumerate(self.extra_cells):
            params = dict(BASE_DEFAULTS)
            params.update(self.defaults)
            params.update(overrides)
            add(explicit_id or f"cell{k}", params)
        return tuple(cells)

    def _validate_cell(self, cell_id: str, params: Dict[str, Any]) -> None:
        algorithm = params.get("engine.algorithm", "algorithm_a")
        engines = _known_engines()
        if algorithm not in engines:
            raise ExperimentSpecError(
                f"cell {cell_id!r}: unknown engine.algorithm {algorithm!r}; "
                f"expected one of {list(engines)}"
            )
        mode = params.get("index.mode", "none")
        if mode not in _INDEX_MODES:
            raise ExperimentSpecError(
                f"cell {cell_id!r}: unknown index.mode {mode!r}; "
                f"expected one of {list(_INDEX_MODES)}"
            )
        if mode != "none" and algorithm not in ("serial", "multiproc"):
            raise ExperimentSpecError(
                f"cell {cell_id!r}: index.mode {mode!r} is served by the real "
                f"engines (serial, multiproc); {algorithm!r} models execution"
            )
        plan_ref = params.get("faults.plan")
        if plan_ref is not None and plan_ref not in self.fault_plans:
            raise ExperimentSpecError(
                f"cell {cell_id!r}: faults.plan {plan_ref!r} names no declared "
                f"fault plan (declared: {sorted(self.fault_plans) or 'none'})"
            )
        speeds = params.get("engine.rank_speeds")
        if speeds is not None:
            ranks = int(params.get("engine.ranks", 1))
            if (
                not isinstance(speeds, Sequence)
                or isinstance(speeds, (str, bytes))
                or len(speeds) != ranks
            ):
                raise ExperimentSpecError(
                    f"cell {cell_id!r}: engine.rank_speeds must list exactly "
                    f"engine.ranks={ranks} factors, got {speeds!r}"
                )

    # -- public API --------------------------------------------------------

    def cells(self) -> Tuple[CellSpec, ...]:
        """Every cell of the grid, in deterministic execution order."""
        return self._cells

    def cell(self, index: int) -> CellSpec:
        return self._cells[index]

    def digest(self) -> str:
        """Content fingerprint of the spec (the resume guard)."""
        blob = json.dumps(self._payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_payload(self) -> Dict[str, Any]:
        """The canonical dict this spec was parsed from (JSON-safe)."""
        return json.loads(json.dumps(self._payload))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], source: Optional[str] = None) -> "ExperimentSpec":
        return cls(payload, source=source)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """Load a scenario from YAML (``.yaml``/``.yml``) or JSON."""
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ExperimentSpecError(f"cannot read scenario {path}: {exc}") from exc
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError:  # pragma: no cover - toolchain bakes pyyaml in
                raise ExperimentSpecError(
                    f"{path} is YAML but pyyaml is not installed; "
                    f"convert the scenario to JSON or install pyyaml"
                ) from None
            try:
                payload = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ExperimentSpecError(f"{path} is not valid YAML: {exc}") from exc
        else:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ExperimentSpecError(f"{path} is not valid JSON: {exc}") from exc
        return cls(payload, source=path)


def _canonical(payload: Any) -> Any:
    """JSON-safe deep copy (tuples -> lists, mapping keys -> str)."""
    if isinstance(payload, Mapping):
        return {str(k): _canonical(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_canonical(v) for v in payload]
    return payload
