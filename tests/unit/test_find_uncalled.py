"""tools/find_uncalled.py: the line-event audit over a throwaway package.

The package holds one function its program calls, one nothing calls,
one only a spawned child process calls and one only a thread calls; the
audit must report exactly the uncalled one.  One called function has an
arm that runs, a dead arm and a ``raise`` guard: the audit must list
the dead arm alone, count the arms that run only in the child or on
the thread as run, and see the dead arm run by a later command.  A
stale allowlist — an entry naming nothing, or one without a reason —
fails it.
"""

import importlib.util
import os
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "find_uncalled", os.path.join(ROOT, "tools", "find_uncalled.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tool = load_tool()

MODULE = '''\
"""A program with one function nothing calls."""

import multiprocessing
import threading


def called():
    return 1


def uncalled(flag=True):
    if flag:
        return 2
    return 0


def in_child(flag=True):
    if flag:
        return 3
    return 0


def on_thread(flag=True):
    if flag:
        return 4
    return 0


def branchy(flag):
    if flag:
        return 5
    elif flag is None:
        raise ValueError("a guard arm")
    else:
        return 6


class Runner:
    def main(self):
        called()
        branchy(True)
        child = multiprocessing.get_context("spawn").Process(target=in_child)
        child.start()
        child.join()
        assert child.exitcode == 0
        thread = threading.Thread(target=on_thread)
        thread.start()
        thread.join()
'''

PROGRAM = [sys.executable, "-c", "from throwaway.mod import Runner; Runner().main()"]


@pytest.fixture()
def package(tmp_path):
    src = tmp_path / "src"
    (src / "throwaway").mkdir(parents=True)
    (src / "throwaway" / "__init__.py").write_text('"""Throwaway."""\n')
    (src / "throwaway" / "mod.py").write_text(MODULE)
    work = tmp_path / "work"
    work.mkdir()
    return str(src), str(work)


def allowlist(tmp_path, text):
    path = tmp_path / "allowlist.txt"
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_reports_exactly_the_uncalled_function(package, tmp_path):
    src, work = package
    result = tool.audit(src, [("program", PROGRAM)], allowlist(tmp_path, ""), work)
    assert [d.name for d in result.uncalled] == ["throwaway.mod.uncalled"]
    assert result.problems == []
    assert result.called == result.total - 1 == 5


def test_reports_exactly_the_dead_arm(package, tmp_path):
    src, work = package
    result = tool.audit(src, [("program", PROGRAM)], allowlist(tmp_path, ""), work)
    [arm] = result.arms
    assert (arm.owner, arm.kind, arm.lines) == ("throwaway.mod.branchy", "else", 1)
    assert 0 < result.lines_run < result.lines_total


def test_a_later_path_runs_the_arm_an_earlier_one_left(package, tmp_path):
    # the second command starts from the first one's records: only the
    # dead arm is still traced there, and it runs
    src, work = package
    later = ("later", [sys.executable, "-c", "from throwaway.mod import branchy; branchy(False)"])
    result = tool.audit(src, [("program", PROGRAM), later], allowlist(tmp_path, ""), work)
    assert result.arms == [] and result.called == 5


def test_allowlisted_function_is_not_reported(package, tmp_path):
    src, work = package
    path = allowlist(tmp_path, """\
        # comment lines and blank lines are skipped

        throwaway.mod.uncalled: kept for a reason
    """)
    result = tool.audit(src, [("program", PROGRAM)], path, work)
    assert result.uncalled == []
    assert [d.name for d in result.allowlisted] == ["throwaway.mod.uncalled"]
    assert result.problems == []


def test_module_entry_covers_its_functions(package, tmp_path):
    src, work = package
    path = allowlist(tmp_path, "throwaway.mod: the whole module is kept\n")
    result = tool.audit(src, [], path, work)
    assert result.uncalled == [] and result.problems == []
    assert len(result.allowlisted) == result.total


@pytest.mark.parametrize(
    "entry, problem",
    [
        ("throwaway.mod.gone: it was deleted\n", "names no module, class or function"),
        ("throwaway.mod.uncalled:\n", "gives no reason"),
        ("throwaway.mod.uncalled\n", "gives no reason"),
    ],
)
def test_stale_allowlist_fails(package, tmp_path, entry, problem):
    src, work = package
    result = tool.audit(src, [], allowlist(tmp_path, entry), work)
    assert len(result.problems) == 1 and problem in result.problems[0]


def test_failing_command_is_an_error(package, tmp_path):
    src, work = package
    failing = ("exits 3", [sys.executable, "-c", "raise SystemExit(3)"])
    with pytest.raises(RuntimeError, match="exits 3 exited 3"):
        tool.audit(src, [failing], allowlist(tmp_path, ""), work)


def test_checked_in_allowlist_names_existing_functions_with_reasons():
    entries, problems = tool.read_allowlist(tool.ALLOWLIST)
    defs, containers = tool.definitions(tool.SRC)
    names = containers | {d.name for d in defs}
    assert problems == []
    assert sorted(name for name in entries if name not in names) == []
