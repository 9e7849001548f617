"""Public-API surface tests: __all__ integrity and top-level imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.chem",
    "repro.spectra",
    "repro.scoring",
    "repro.candidates",
    "repro.simmpi",
    "repro.core",
    "repro.engines",
    "repro.workloads",
    "repro.analysis",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{package} has no __all__")
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_exports(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))


def test_top_level_covers_the_quickstart_surface():
    import repro

    for name in (
        "generate_database",
        "generate_queries",
        "run_search",
        "SearchConfig",
        "SearchReport",
        "reports_equal",
        "ClusterConfig",
        "NetworkModel",
    ):
        assert name in repro.__all__

    assert repro.__version__


def test_algorithm_registry_matches_docs():
    from repro.core.driver import ALGORITHMS

    assert sorted(ALGORITHMS) == [
        "algorithm_a",
        "algorithm_a_nomask",
        "algorithm_b",
        "master_worker",
        "serial",
        "xbang",
    ]


def _commands(parser):
    (subparsers,) = (a for a in parser._actions if a.dest == "command")
    return sorted(subparsers.choices)


def test_cli_command_set():
    from repro.cli import build_parser

    assert _commands(build_parser()) == [
        "experiments",
        "generate",
        "index",
        "search",
        "serve",
        "trace",
    ]


@pytest.mark.parametrize(
    "command",
    ["scaling", "validate", "compare", "timeline", "advise", "calibrate", "tune", "report"],
)
def test_retired_commands_exit_2(command, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("retired", ["query_transport", "candidate_transport", "subgroups_g2"])
def test_retired_algorithms_are_typed_errors(retired, tiny_db, tiny_queries):
    from repro.core.driver import ALGORITHMS, run_search
    from repro.errors import ConfigError, ExperimentSpecError
    from repro.experiments import ExperimentSpec

    with pytest.raises(ConfigError) as exc:
        run_search(tiny_db, tiny_queries, algorithm=retired)
    for survivor in ALGORITHMS:
        assert survivor in str(exc.value)
    with pytest.raises(ExperimentSpecError, match="unknown engine.algorithm"):
        ExperimentSpec.from_dict(
            {
                "schema": "repro.experiment_spec/1",
                "name": "retired",
                "cells": [{"id": "c", "engine.algorithm": retired}],
            }
        )


def test_search_config_field_set():
    import dataclasses

    from repro.core.config import SearchConfig

    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "delta",
        "tau",
        "scorer",
        "fragment_tolerance",
        "min_candidate_length",
        "modifications",
        "execution",
        "cost",
        "score_cutoff",
        "sweep_cohort",
    ]


@pytest.mark.parametrize("flag", ["--no-index", "--use-index"])
def test_index_switch_flags_exit_2(flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["search", "-n", "20", "-m", "2", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("knob", ["use_index", "index_max_length"])
def test_index_switch_spec_keys_are_typed_errors(knob):
    from repro.errors import ExperimentSpecError
    from repro.experiments import ExperimentSpec

    with pytest.raises(ExperimentSpecError, match="unknown field"):
        ExperimentSpec.from_dict(
            {
                "schema": "repro.experiment_spec/1",
                "name": "retired",
                "cells": [{"id": "c", f"config.{knob}": 1}],
            }
        )


def test_no_search_builds_an_index(tiny_db, tiny_queries):
    """An index comes from a store or not at all: the direct searcher
    takes none (a store is searched by ``StreamingSearcher``) and no
    default run records an ``index.build`` span."""
    import inspect

    from repro.core.config import SearchConfig
    from repro.core.search import ShardSearcher, search_serial
    from repro.engines.multiproc import run_multiprocess_search
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.service import SearchService, ServiceConfig

    config = SearchConfig(tau=5)
    assert "index" not in inspect.signature(ShardSearcher.__init__).parameters
    assert not hasattr(ShardSearcher(tiny_db, SearchConfig()), "index")
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        serial = search_serial(tiny_db, tiny_queries, config)
        multiproc = run_multiprocess_search(tiny_db, tiny_queries, num_workers=2, config=config)
        with SearchService(config, ServiceConfig(workers=1), database=tiny_db) as service:
            response = service.search(tiny_queries).raise_for_status()
    assert serial.hits == multiproc.hits == response.hits
    names = {span["name"] for span in registry.spans}
    assert "search.shard" in names and "index.build" not in names
    assert serial.extras["index_rows"] == multiproc.extras["index_rows"] == 0


def test_every_module_has_a_docstring():
    import pathlib

    root = pathlib.Path("src/repro")
    missing = []
    for path in root.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")) and stripped:
            missing.append(str(path))
    assert not missing, f"modules without docstrings: {missing}"
