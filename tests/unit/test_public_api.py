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
        "PeptideIdentifier",
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
        "report",
        "search",
        "serve",
        "trace",
        "tune",
    ]


@pytest.mark.parametrize(
    "command", ["scaling", "validate", "compare", "timeline", "advise", "calibrate"]
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
