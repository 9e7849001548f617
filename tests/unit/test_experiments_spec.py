"""Spec parsing/validation: every malformed scenario fails typed, before any cell runs."""

import json

import pytest

from repro.errors import ConfigError, ExperimentSpecError, ReproError
from repro.experiments import ExperimentSpec
from repro.experiments.spec import BASE_DEFAULTS


def minimal(**overrides):
    payload = {
        "name": "t",
        "axes": {"engine.ranks": [1, 2]},
    }
    payload.update(overrides)
    return payload


class TestErrorType:
    def test_subclasses_config_error(self):
        assert issubclass(ExperimentSpecError, ConfigError)
        assert issubclass(ExperimentSpecError, ReproError)

    def test_cli_one_line_contract(self):
        # the CLI catches ReproError; a bad spec must flow through it
        with pytest.raises(ReproError):
            ExperimentSpec.from_dict({"name": "x", "axes": {"bogus.key": [1]}})


class TestTopLevel:
    def test_unknown_top_level_key(self):
        with pytest.raises(ExperimentSpecError, match="unknown top-level"):
            ExperimentSpec.from_dict(minimal(tablez=[]))

    def test_missing_name(self):
        with pytest.raises(ExperimentSpecError, match="name"):
            ExperimentSpec.from_dict({"axes": {"engine.ranks": [1]}})

    def test_wrong_schema(self):
        with pytest.raises(ExperimentSpecError, match="unsupported spec schema"):
            ExperimentSpec.from_dict(minimal(schema="repro.experiment_spec/999"))

    def test_no_cells_at_all(self):
        with pytest.raises(ExperimentSpecError, match="no cells"):
            ExperimentSpec.from_dict({"name": "t"})


class TestKnobValidation:
    def test_unknown_axis_group(self):
        with pytest.raises(ExperimentSpecError, match="unknown group 'bogus'"):
            ExperimentSpec.from_dict(minimal(axes={"bogus.ranks": [1]}))

    def test_unknown_axis_field(self):
        with pytest.raises(ExperimentSpecError, match="unknown field 'rankz'"):
            ExperimentSpec.from_dict(minimal(axes={"engine.rankz": [1]}))

    def test_removed_use_sweep_knob_named(self):
        """``config.use_sweep`` went with the per-query path; a scenario
        that still sets it fails at parse time, naming the knob."""
        with pytest.raises(ExperimentSpecError, match="unknown field 'use_sweep'"):
            ExperimentSpec.from_dict(minimal(defaults={"config": {"use_sweep": True}}))

    def test_bare_group_key_in_defaults(self):
        with pytest.raises(ExperimentSpecError, match="names a whole group"):
            ExperimentSpec.from_dict(minimal(defaults={"engine": 4}))

    def test_unknown_field_in_defaults(self):
        with pytest.raises(ExperimentSpecError, match="unknown field"):
            ExperimentSpec.from_dict(minimal(defaults={"workload": {"sizee": 5}}))

    def test_conflicting_nested_and_dotted(self):
        with pytest.raises(ExperimentSpecError, match="conflicting overrides"):
            ExperimentSpec.from_dict(
                minimal(defaults={"engine.algorithm": "serial", "engine": {"algorithm": "xbang"}})
            )

    def test_conflict_in_explicit_cell(self):
        with pytest.raises(ExperimentSpecError, match="conflicting overrides"):
            ExperimentSpec.from_dict(
                {
                    "name": "t",
                    "cells": [{"config.tau": 10, "config": {"tau": 20}}],
                }
            )

    def test_cross_axis_leaf_conflict(self):
        with pytest.raises(ExperimentSpecError, match="conflicting overrides"):
            ExperimentSpec.from_dict(
                {
                    "name": "t",
                    "axes": {
                        "engine.ranks": [1, 2],
                        "engine": [{"ranks": 4}],
                    },
                }
            )


class TestFaultPlans:
    def test_bad_plan_ref(self):
        with pytest.raises(ExperimentSpecError, match="names no declared fault plan"):
            ExperimentSpec.from_dict(
                minimal(cells=[{"faults.plan": "nope"}], axes={})
            )

    def test_bad_plan_payload(self):
        with pytest.raises(ExperimentSpecError, match="not a valid fault plan"):
            ExperimentSpec.from_dict(
                minimal(fault_plans={"p": {"crashes": [{"rank": 0, "when": 1.0}]}})
            )

    def test_non_physical_plan(self):
        with pytest.raises(ExperimentSpecError, match="not a valid fault plan"):
            ExperimentSpec.from_dict(
                minimal(
                    fault_plans={"p": {"stragglers": [{"rank": 0, "factor": 2.0}]}}
                )
            )

    def test_good_plan_parses(self):
        spec = ExperimentSpec.from_dict(
            minimal(
                fault_plans={"p": {"crashes": [{"rank": 1, "time": 0.5}]}},
                cells=[{"faults.plan": "p", "engine.ranks": 4}],
            )
        )
        assert spec.fault_plans["p"].crashes[0].rank == 1


class TestCellConstruction:
    def test_axis_product_order_and_ids(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "t",
                "axes": {
                    "workload.database_size": [100, 200],
                    "engine.ranks": [1, 2],
                },
            }
        )
        ids = [c.cell_id for c in spec.cells()]
        assert ids == [
            "database_size-100__ranks-1",
            "database_size-100__ranks-2",
            "database_size-200__ranks-1",
            "database_size-200__ranks-2",
        ]
        assert spec.cells()[0].params["workload.database_size"] == 100
        assert spec.cells()[3].params["engine.ranks"] == 2

    def test_defaults_flow_into_cells(self):
        spec = ExperimentSpec.from_dict(
            minimal(defaults={"config": {"tau": 7}, "workload.queries": 9})
        )
        for cell in spec.cells():
            assert cell.params["config.tau"] == 7
            assert cell.params["workload.queries"] == 9
            # base defaults still present underneath
            assert cell.params["workload.seed"] == BASE_DEFAULTS["workload.seed"]

    def test_explicit_cells_appended(self):
        spec = ExperimentSpec.from_dict(
            minimal(cells=[{"id": "big", "engine.ranks": 64}])
        )
        assert [c.cell_id for c in spec.cells()] == ["ranks-1", "ranks-2", "big"]

    def test_duplicate_cell_id(self):
        with pytest.raises(ExperimentSpecError, match="duplicate cell id"):
            ExperimentSpec.from_dict(
                {
                    "name": "t",
                    "cells": [{"id": "a"}, {"id": "a"}],
                }
            )

    def test_label_value_wrappers(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "t",
                "axes": {
                    "faults.plan": [
                        {"label": "clean", "value": None},
                        {"label": "crashy", "value": "p"},
                    ]
                },
                "fault_plans": {"p": {"crashes": [{"rank": 0, "time": 1.0}]}},
                "defaults": {"engine.ranks": 4},
            }
        )
        assert [c.cell_id for c in spec.cells()] == ["plan-clean", "plan-crashy"]
        assert spec.cells()[0].params["faults.plan"] is None

    def test_group_axis_patches(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "t",
                "axes": {
                    "workload": [
                        {"label": "small", "value": {"min_length": 5, "max_length": 9}},
                        {"label": "big", "value": {"min_length": 20, "max_length": 30}},
                    ]
                },
            }
        )
        assert [c.cell_id for c in spec.cells()] == ["workload-small", "workload-big"]
        assert spec.cells()[1].params["workload.max_length"] == 30

    def test_unknown_engine(self):
        with pytest.raises(ExperimentSpecError, match="unknown engine.algorithm"):
            ExperimentSpec.from_dict(minimal(defaults={"engine.algorithm": "warp"}))

    def test_index_mode_needs_real_engine(self):
        with pytest.raises(ExperimentSpecError, match="real"):
            ExperimentSpec.from_dict(
                minimal(defaults={"index.mode": "resident"})  # algorithm_a is simulated
            )

    def test_rank_speeds_length_mismatch(self):
        with pytest.raises(ExperimentSpecError, match="rank_speeds"):
            ExperimentSpec.from_dict(
                {
                    "name": "t",
                    "cells": [
                        {"engine": {"ranks": 4, "rank_speeds": [1.0, 0.5]}}
                    ],
                }
            )


class TestTablesAndChecks:
    def test_table_over_non_axis(self):
        with pytest.raises(ExperimentSpecError, match="not an axis"):
            ExperimentSpec.from_dict(
                minimal(
                    tables=[
                        {
                            "name": "x",
                            "rows": "workload.database_size",
                            "cols": "engine.ranks",
                        }
                    ]
                )
            )

    def test_table_unknown_value(self):
        with pytest.raises(ExperimentSpecError, match="unknown value"):
            ExperimentSpec.from_dict(
                minimal(
                    defaults={"workload.database_size": 100},
                    tables=[
                        {
                            "name": "x",
                            "rows": "workload.database_size",
                            "cols": "engine.ranks",
                            "value": "wall_clock",
                        }
                    ],
                )
            )

    def test_scaling_needs_virtual_time(self):
        with pytest.raises(ExperimentSpecError, match="scaling"):
            ExperimentSpec.from_dict(
                minimal(
                    defaults={"workload.database_size": 100},
                    tables=[
                        {
                            "name": "x",
                            "rows": "workload.database_size",
                            "cols": "engine.ranks",
                            "value": "candidates_evaluated",
                            "scaling": True,
                        }
                    ],
                )
            )

    def test_group_axis_leaves_usable_in_tables(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "t",
                "axes": {
                    "workload": [{"min_length": 5}, {"min_length": 9}],
                    "engine.ranks": [1, 2],
                },
                "tables": [
                    {"name": "x", "rows": "workload.min_length", "cols": "engine.ranks"}
                ],
            }
        )
        assert spec.tables[0].rows == "workload.min_length"

    def test_check_unknown_group_key(self):
        with pytest.raises(ExperimentSpecError, match="unknown"):
            ExperimentSpec.from_dict(
                minimal(checks=[{"name": "c", "group_by": ["bogus.k"]}])
            )

    def test_lower_bounds_validation(self):
        with pytest.raises(ExperimentSpecError, match="lower_bounds.ranks"):
            ExperimentSpec.from_dict(minimal(lower_bounds={"ranks": [0]}))
        with pytest.raises(ExperimentSpecError, match="unknown key"):
            ExperimentSpec.from_dict(minimal(lower_bounds={"rankz": [2]}))


class TestSerialization:
    def test_digest_stable_and_content_bound(self):
        a = ExperimentSpec.from_dict(minimal())
        b = ExperimentSpec.from_dict(minimal())
        c = ExperimentSpec.from_dict(minimal(description="changed"))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_roundtrip_through_payload(self):
        spec = ExperimentSpec.from_dict(minimal(defaults={"config.tau": 5}))
        again = ExperimentSpec.from_dict(spec.to_payload())
        assert again.digest() == spec.digest()
        assert [c.cell_id for c in again.cells()] == [c.cell_id for c in spec.cells()]

    def test_from_file_json_and_yaml(self, tmp_path):
        payload = minimal()
        j = tmp_path / "s.json"
        j.write_text(json.dumps(payload))
        spec_j = ExperimentSpec.from_file(j)
        y = tmp_path / "s.yaml"
        y.write_text("name: t\naxes:\n  engine.ranks: [1, 2]\n")
        spec_y = ExperimentSpec.from_file(y)
        assert spec_j.digest() == spec_y.digest()
        assert spec_y.source == str(y)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ExperimentSpecError, match="cannot read"):
            ExperimentSpec.from_file(tmp_path / "nope.yaml")

    def test_from_file_bad_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("name: [unclosed\n")
        with pytest.raises(ExperimentSpecError, match="not valid YAML"):
            ExperimentSpec.from_file(p)

    def test_from_file_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        with pytest.raises(ExperimentSpecError, match="not valid JSON"):
            ExperimentSpec.from_file(p)
