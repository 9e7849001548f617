"""List the code in ``src`` that no product path runs.

A line-event audit.  Every product path runs as a subprocess with a
``sitecustomize`` hook on its ``PYTHONPATH`` that installs
``sys.settrace`` and ``threading.settrace``: each process (the CLI's,
every multiprocessing worker, fork or spawn, and every thread the
service starts) appends each ``src`` function it enters and each
``src`` line it runs, the first time, to a record file of its own,
written as it happens, so a worker that exits through ``os._exit`` or
is killed still leaves its record behind.  The product paths run one
after another, and each starts from what the earlier ones recorded: a
code object stops being traced once every line of it outside its
guards has a record, so the hot loops of later paths run untraced.  The
product paths are every CLI command's smoke, every checked-in scenario,
``benchmarks/e2e/run.py --smoke`` and the service storm; the unit tests
are not one of them.

One run gives three reports:

* **Functions** (the gate).  The ``src`` functions are read off the
  source with :mod:`ast`: every module-level function and every method
  of a class at any depth (functions nested inside functions are
  reached through their parent and are not listed).  A function nothing
  entered is reported unless ``tools/uncalled_allowlist.txt`` keeps it:
  one entry a line, ``<dotted name>: <reason>``, where a module or class
  name covers every function inside it.  An entry naming nothing that
  exists, or giving no reason, fails the audit as well.
* **Open arms** (a listing).  Every ``if`` / ``elif`` / ``else`` arm no
  product path ran, grouped by enclosing function: the outermost one of
  a nest, with the count of its lines none ran.  Guard arms (ending in
  ``raise``, or in the CLI's usage-error ``return 2``), ``except``
  handlers, functions nothing entered and allowlisted code are left out.
* **Options** (the gate).  Every CLI option no product-path argv types
  with a value other than its default, and every experiments-spec field
  no checked-in scenario sets.

Usage::

    python tools/find_uncalled.py

Exit status is 0 when every uncalled function is allowlisted, the
allowlist is clean and every option is exercised, 1 otherwise (and 2
when a product path fails).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "tools", "uncalled_allowlist.txt")
SCENARIOS = os.path.join(ROOT, "scenarios")

#: the hook every audited process imports at startup; ``{records}`` is
#: the directory the per-process record files go to, ``{known}`` the file
#: of what earlier product paths recorded, ``{prefix}`` the real path of
#: the audited source tree.  A record is ``C`` (a function entered, by
#: its first line) or ``L`` (a line run), a path and a line; the known
#: file adds ``G`` (a line of a guard, see :func:`guard_lines`).  A code
#: object is traced only while it has a line outside its guards that
#: nothing recorded yet, here or in an earlier product path.
_BOOT = """\
import os, sys, threading

_RECORDS = {records!r}
_PREFIX = {prefix!r}
_files = {{}}  # co_filename -> real path under the prefix, or None
_codes = {{}}  # id(code) -> (code, its line tracer or None); holding code keeps ids unique
_entered = set()  # (real path, first line) recorded
_seen = {{}}  # real path -> line numbers recorded
_guards = {{}}  # real path -> line numbers of its guards
_out = [None, None]  # pid, fd

with open({known!r}, encoding="utf-8") as fh:
    for record in fh:
        kind, path, line = record.split("\\t")
        if kind == "C":
            _entered.add((path, int(line)))
        else:
            (_seen if kind == "L" else _guards).setdefault(path, set()).add(int(line))


def _record(kind, path, line):
    pid = os.getpid()
    if _out[0] != pid:  # first record of this process (or of a forked child)
        name = os.path.join(_RECORDS, "run-%d.txt" % pid)
        _out[:] = [pid, os.open(name, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
    os.write(_out[1], ("%s\\t%s\\t%d\\n" % (kind, path, line)).encode())


def _tracer(code, path):
    seen = _seen.setdefault(path, set())
    left = {{line for _, _, line in code.co_lines() if line is not None}} - seen
    left -= _guards.get(path, set())
    if code.co_name != "<module>":  # a def line runs in the code that defines it
        left.discard(code.co_firstlineno)
    if not left:
        return None

    def _line(frame, event, arg):
        if event == "line" and frame.f_lineno in left:
            line = frame.f_lineno
            left.discard(line)
            if line not in seen:
                seen.add(line)
                _record("L", path, line)
            if not left:  # every line recorded: trace this code no more
                _codes[id(code)] = (code, None)
                return None
        return _line
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    known = _codes.get(id(code))
    if known is not None:
        return known[1]
    name = code.co_filename
    if name not in _files:
        real = os.path.realpath(name)
        _files[name] = real if real.startswith(_PREFIX) else None
    path = _files[name]
    tracer = None
    if path is not None:
        if (path, code.co_firstlineno) not in _entered:
            _entered.add((path, code.co_firstlineno))
            _record("C", path, code.co_firstlineno)
        tracer = _tracer(code, path)
    _codes[id(code)] = (code, tracer)
    return tracer


sys.settrace(_call)
threading.settrace(_call)
"""

#: the service storm: worker crashes, a slow worker and a store outage
_SERVICE_PLAN = {
    "crashes": [], "stragglers": [], "nic_degradations": [], "transient": None,
    "seed": 0, "description": "uncalled-code audit storm",
    "service": {
        "worker_crashes": [{"batch": 1, "attempts": 1, "chunk": 0}],
        "slow_workers": [{"worker": 0, "delay": 0.02, "batches": 2}],
        "store_outages": [{"batch": 2, "attempts": 1}],
        "storm": {"clients": 6, "requests_per_client": 3,
                  "queries_per_request": 4, "interval": 0.0, "seed": 7},
    },
}

#: a rank crash the multiproc supervisor retries
_SEARCH_PLAN = {
    "crashes": [{"rank": 0, "time": 1.0}], "stragglers": [], "nic_degradations": [],
    "transient": None, "seed": 0, "description": "uncalled-code audit crash",
}

#: a simulated rank that dies inside a 60-protein run
_RANK_PLAN = dict(_SEARCH_PLAN, crashes=[{"rank": 1, "time": 0.0001}])

_SCORERS = ("shared_peaks", "likelihood", "hyperscore", "xcorr", "hypergeometric")

#: report options some scenario runs add (the validation grid has
#: checks and no tables)
_SCENARIO_OPTIONS = {
    "smoke.yaml": ("--format", "markdown", "--update", "smoke.md", "--report-out", "smoke.json"),
    "validation.yaml": ("--format", "markdown"),
}

#: the query workload and ``SearchConfig`` options off their defaults
_SEARCH_KNOBS = ("--query-seed", "5", "--delta", "2.5", "--tau", "20", "--sweep-cohort", "16")


#: the exit status a product path is run for, where it is not 0: with
#: ``--max-retries 0`` the plan's crash quarantines a task, and ``repro
#: search`` writes the partial results and exits ``EXIT_PARTIAL`` (3)
EXPECTED_EXIT = {"search spawn quarantine": 3}


def product_paths() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every product path; each runs with the work
    directory :func:`_prepare_work` filled as its current directory."""
    repro = [sys.executable, "-m", "repro"]
    search = repro + ["search", "-n", "60", "-m", "8", "--show", "1"]
    paths: List[Tuple[str, List[str]]] = [
        ("generate", repro + ["generate", "db.fasta", "-n", "60", "--seed", "3"]),
        ("generate human", repro + ["generate", "human.fasta", "--dataset", "human", "-n", "30"]),
        ("generate microbial",
         repro + ["generate", "microbial.fasta", "--dataset", "microbial", "-n", "30"]),
        ("index build", repro + ["index", "build", "resident", "-n", "60", "--seed", "3"]),
        ("index build partitioned",
         repro + ["index", "build", "part", "-n", "60", "--seed", "3", "--partition-mb", "0.01"]),
        ("index build fasta",
         repro + ["index", "build", "fasta_store", "--database", "db.fasta", "--overwrite",
                  "--fragment-tolerance", "0.4", "--index-max-length", "30"]),
        ("index inspect", repro + ["index", "inspect", "resident"]),
        ("index inspect partitioned", repro + ["index", "inspect", "part"]),
    ]
    paths += [
        (f"search {scorer}",
         search + ["-a", "serial", "--scorer", scorer, "-o", f"{scorer}.tsv",
                   "--report-out", f"{scorer}.json"])
        for scorer in _SCORERS
    ]
    paths += [
        (f"search {algorithm}", search + ["-a", algorithm, "-p", "3"])
        for algorithm in ("algorithm_a", "algorithm_b", "master_worker", "xbang")
    ]
    paths += [
        ("search fasta", repro + ["search", "--database", "db.fasta", "-m", "8", "--show", "1",
                                  *_SEARCH_KNOBS]),
        ("search resident store", search + ["--seed", "3", "-a", "serial", "--scorer",
                                            "hyperscore", "--index-path", "resident"]),
        ("search multiproc resident store",
         search + ["--seed", "3", "-a", "multiproc", "-p", "2", "--scorer", "hyperscore",
                   "--index-path", "resident"]),
        ("search partitioned store", search + ["--seed", "3", "-a", "serial",
                                                "--index-path", "part"]),
        ("search autotune partitioned store",
         search + ["--seed", "3", "--autotune", "--index-path", "part", "-a", "multiproc",
                   "-p", "2"]),
        ("search streamed", search + ["-a", "serial", "--stream", "--partition-mb", "0.01",
                                      "--memory-budget-mb", "0.05"]),
        ("search autotune", search + ["--autotune", "--report-out", "autotune.json"]),
        ("search autotune multiproc",
         repro + ["search", "--autotune", "-n", "2000", "-m", "400", "--show", "0"]),
        ("search spawn quarantine",
         search + ["-a", "multiproc", "-p", "2", "--start-method", "spawn", "--query-blocks", "3",
                   "--fault-plan", "search_plan.json", "--max-retries", "0", "--show", "8"]),
        ("search one worker", search + ["-a", "multiproc", "-p", "1",
                                        "--fault-plan", "search_plan.json"]),
        ("search algorithm_a_nomask rank failure",
         search + ["-a", "algorithm_a_nomask", "-p", "3", "--fault-plan", "rank_plan.json"]),
        ("search fault plan", search + ["-a", "multiproc", "-p", "2", "--task-timeout", "120",
                                        "--fault-plan", "search_plan.json", "--max-retries", "2"]),
        ("search checkpoint", search + ["-a", "multiproc", "-p", "2",
                                        "--checkpoint", "ck.json", "-o", "a.tsv"]),
        ("search resume", search + ["-a", "multiproc", "-p", "2",
                                    "--checkpoint", "ck.json", "--resume", "-o", "b.tsv"]),
        ("trace chrome", repro + ["trace", "-n", "60", "-m", "8", "-a", "algorithm_a",
                                  "-p", "3", "--out", "trace.json"]),
        ("trace ascii", repro + ["trace", "-n", "60", "-m", "8", "-a", "algorithm_b",
                                 "-p", "3", "--format", "ascii", "--width", "60", "--seed", "3",
                                 "--scorer", "hyperscore", *_SEARCH_KNOBS]),
        ("trace multiproc", repro + ["trace", "-n", "60", "-m", "8", "-a", "multiproc",
                                     "-p", "2", "--out", "trace_mp.json"]),
        ("serve storm", repro + ["serve", "-n", "150", "-m", "32", "--fault-plan",
                                 "service_plan.json", "--report-out", "serve.json"]),
        ("serve resident store", repro + ["serve", "-n", "60", "--seed", "3", "-m", "16",
                                          "--index-path", "resident", "--policy", "shed",
                                          "--queue-limit", "1"]),
        ("serve partitioned store", repro + ["serve", "-m", "16", "--index-path", "part",
                                             "--memory-budget-mb", "0.05"]),
        ("serve fasta", repro + [
            "serve", "--database", "db.fasta", "-m", "16", "--scorer", "hyperscore",
            *_SEARCH_KNOBS, "--queue-limit", "1", "--admission-timeout", "2",
            "--deadline", "30", "--no-coalesce", "--chunk-queries", "8",
            "--max-worker-restarts", "3", "--clients", "3", "--requests", "2",
            "--queries-per-request", "3", "--interval", "0.001", "--storm-seed", "5"]),
    ]
    for name in sorted(os.listdir(SCENARIOS)):
        if name.endswith(".yaml"):
            spec = os.path.join(SCENARIOS, name)
            paths.append((f"scenario {name}", repro + [
                "experiments", "run", spec, "--out", f"exp_{name}", "--workers", "2", "--quiet",
                *_SCENARIO_OPTIONS.get(name, ())]))
    smoke = os.path.join(SCENARIOS, "smoke.yaml")
    paths += [
        ("experiments resume", repro + ["experiments", "resume", smoke, "--out",
                                        "exp_smoke.yaml", "--quiet", "-j", "2", "--format",
                                        "json", "--update", "resume.md",
                                        "--report-out", "resume.json"]),
        ("experiments report", repro + ["experiments", "report", smoke, "--out",
                                        "exp_smoke.yaml", "--format", "markdown",
                                        "--update", "EXPERIMENTS.md",
                                        "--report-out", "report.json"]),
        ("experiments report ascii", repro + ["experiments", "report", smoke,
                                              "--out", "exp_smoke.yaml"]),
        ("benchmark smoke", [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
                             "--smoke", "--out", "e2e.json"]),
    ]
    return paths


def _prepare_work(work: str) -> None:
    with open(os.path.join(work, "service_plan.json"), "w") as fh:
        json.dump(_SERVICE_PLAN, fh)
    with open(os.path.join(work, "search_plan.json"), "w") as fh:
        json.dump(_SEARCH_PLAN, fh)
    with open(os.path.join(work, "rank_plan.json"), "w") as fh:
        json.dump(_RANK_PLAN, fh)
    shutil.copy(os.path.join(ROOT, "EXPERIMENTS.md"), work)


# -- definitions ----------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    name: str  # dotted: package.module.Class.method
    path: str  # real path of the source file
    line: int  # first line of the def, decorators included (= co_firstlineno)


def _module_name(path: str, src: str) -> str:
    parts = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _walk(body: Sequence[ast.stmt], prefix: str, path: str,
          defs: List[Definition], containers: Set[str]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs.append(Definition(f"{prefix}.{node.name}", path, line))
        elif isinstance(node, ast.ClassDef):
            containers.add(f"{prefix}.{node.name}")
            _walk(node.body, f"{prefix}.{node.name}", path, defs, containers)
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            for block in blocks:
                _walk(block, prefix, path, defs, containers)


def definitions(src: str) -> Tuple[List[Definition], Set[str]]:
    """Every function and method under ``src``, and the dotted names of
    its modules and classes (the names an allowlist entry may cover)."""
    src = os.path.realpath(src)
    defs: List[Definition] = []
    containers: Set[str] = set()
    for path, module, tree in _modules(src):
        containers.add(module)
        _walk(tree.body, module, path, defs, containers)
    return defs, containers


def _modules(src: str) -> Iterator[Tuple[str, str, ast.Module]]:
    """``(real path, dotted name, syntax tree)`` of every module under ``src``."""
    src = os.path.realpath(src)
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    yield path, _module_name(path, src), ast.parse(fh.read(), path)


# -- allowlist ------------------------------------------------------------------


def read_allowlist(path: str) -> Tuple[Dict[str, str], List[str]]:
    """``{dotted name: reason}`` and the problems of malformed lines."""
    entries: Dict[str, str] = {}
    problems: List[str] = []
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(":")
            name, reason = name.strip(), reason.strip()
            if not reason:
                problems.append(f"{path}:{number}: {name} gives no reason")
            elif name in entries:
                problems.append(f"{path}:{number}: {name} is listed twice")
            entries[name] = reason
    return entries, problems


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


# -- the run --------------------------------------------------------------------


@dataclass
class Run:
    """What the product paths ran, by real source path."""

    entered: Set[Tuple[str, int]] = field(default_factory=set)  # (path, first line)
    lines: Dict[str, Set[int]] = field(default_factory=lambda: defaultdict(set))


def record_run(commands: Sequence[Tuple[str, List[str]]], src: str, work: str,
               *, verbose: bool = False) -> Run:
    """Run each command under the line hook; the ``src`` functions any
    of their processes entered and the ``src`` lines they ran."""
    records = os.path.join(work, ".records")
    boot = os.path.join(work, ".boot")
    known = os.path.join(boot, "known.txt")
    os.makedirs(records, exist_ok=True)
    os.makedirs(boot, exist_ok=True)
    prefix = os.path.realpath(src) + os.sep
    with open(os.path.join(boot, "sitecustomize.py"), "w") as fh:
        fh.write(_BOOT.format(records=records, known=known, prefix=prefix))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [boot, os.path.realpath(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = Run()
    read: Dict[str, int] = {}  # record file -> bytes taken in
    guards = [f"G\t{path}\t{line}\n" for path, module, tree in _modules(src)
              for line in sorted(guard_lines(tree, module))]

    def take_records() -> None:
        """Take in what the record files gained; rewrite the known file."""
        for name in os.listdir(records):
            with open(os.path.join(records, name), "rb") as fh:
                fh.seek(read.get(name, 0))
                data = fh.read()
            data = data[: data.rfind(b"\n") + 1]  # whole records only
            read[name] = read.get(name, 0) + len(data)
            for record in data.decode().splitlines():
                kind, path, number = record.split("\t")
                if kind == "C":
                    run.entered.add((path, int(number)))
                else:
                    run.lines[path].add(int(number))
        with open(known, "w", encoding="utf-8") as fh:
            fh.writelines(guards)
            fh.writelines(f"C\t{path}\t{line}\n" for path, line in run.entered)
            fh.writelines(f"L\t{path}\t{line}\n" for path, lines in run.lines.items()
                          for line in lines)

    take_records()
    for label, argv in commands:
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if verbose:
            print(f"  {time.perf_counter() - t0:6.1f}s  {label}", flush=True)
        expected = EXPECTED_EXIT.get(label, 0)
        if done.returncode != expected:
            raise RuntimeError(
                f"{label} exited {done.returncode}, not {expected}:\n{done.stdout[-4000:]}"
            )
        take_records()
    return run


# -- open arms ------------------------------------------------------------------

#: the package whose ``return 2`` is a usage error (a guard arm)
_CLI_PACKAGE = "repro.cli"


@dataclass(frozen=True)
class Arm:
    owner: str  # dotted name of the enclosing function, class or module
    path: str
    line: int  # first line of the arm's first statement
    kind: str  # if, elif or else
    lines: int  # its executable lines no product path ran


def executable_lines(tree: ast.Module, path: str) -> Set[int]:
    """The line numbers the compiled module's code objects carry."""
    stack = [compile(tree, path, "exec")]
    lines: Set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _is_guard(block: Sequence[ast.stmt], owner: str) -> bool:
    """Whether an arm ends in ``raise`` (or, in the CLI, ``return 2``)."""
    last = block[-1]
    if isinstance(last, ast.Raise):
        return True
    return (_covers(_CLI_PACKAGE, owner) and isinstance(last, ast.Return)
            and isinstance(last.value, ast.Constant) and last.value.value == 2)


def guard_lines(tree: ast.Module, module: str) -> Set[int]:
    """The lines of a module's guards: ``raise`` statements, the arms
    that end in one (or in the CLI's ``return 2``) and ``except``
    handlers.  The hook does not wait for them to run, and the reports
    leave them out."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If):
            for block in (node.body, node.orelse):
                if block and _is_guard(block, module):
                    lines.update(range(block[0].lineno, block[-1].end_lineno + 1))
    return lines


class _ArmFinder:
    """Walks one module: the outermost unrun arm of every nest, in the
    functions a product path entered and no allowlist entry covers."""

    def __init__(self, path: str, ran: Set[int], executable: Set[int],
                 entered: Set[Tuple[str, int]], allowlist: Sequence[str]):
        self.path, self.ran, self.executable = path, ran, executable
        self.entered, self.allowlist = entered, allowlist
        self.arms: List[Arm] = []

    def _ran(self, block: Sequence[ast.stmt]) -> bool:
        first = block[0]
        return any(line in self.ran for line in range(first.lineno, first.end_lineno + 1))

    def walk(self, body: Sequence[ast.stmt], owner: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                name = f"{owner}.{node.name}"
                if (self.path, line) in self.entered and not any(
                    _covers(entry, name) for entry in self.allowlist
                ):
                    self.walk(node.body, name)
            elif isinstance(node, ast.ClassDef):
                self.walk(node.body, f"{owner}.{node.name}")
            elif isinstance(node, ast.If):
                self._if(node, "if", owner)
            else:  # loops, with, try (its except handlers are guards)
                for block in ("body", "orelse", "finalbody"):
                    self.walk(getattr(node, block, []), owner)

    def _if(self, node: ast.If, kind: str, owner: str) -> None:
        arms = [(kind, node.body)]
        chained = node.orelse[0] if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If) else None
        if node.orelse and chained is None:
            arms.append(("else", node.orelse))
        for arm_kind, block in arms:
            if self._ran(block):
                self.walk(block, owner)
            elif not _is_guard(block, owner):
                span = range(block[0].lineno, block[-1].end_lineno + 1)
                unrun = sum(1 for line in span if line in self.executable and line not in self.ran)
                self.arms.append(Arm(owner, self.path, block[0].lineno, arm_kind, unrun))
        if chained is not None:
            self._if(chained, "elif", owner)


def open_arms(src: str, run: Run, allowlist: Sequence[str]) -> Tuple[List[Arm], int, int]:
    """Every open arm under ``src``, and the counts of its executable
    lines outside guards and of those that ran."""
    arms: List[Arm] = []
    executable = ran = 0
    for path, module, tree in _modules(src):
        lines = executable_lines(tree, path) - guard_lines(tree, module)
        run_here = run.lines.get(path, set())
        executable += len(lines)
        ran += len(lines & run_here)
        if any(_covers(entry, module) for entry in allowlist):
            continue
        finder = _ArmFinder(path, run_here, lines, run.entered, allowlist)
        finder.walk(tree.body, module)
        arms += finder.arms
    return arms, executable, ran


# -- options --------------------------------------------------------------------


def _cli_commands(parser: argparse.ArgumentParser) -> Iterator[Tuple[Tuple[str, ...], argparse.ArgumentParser]]:
    stack: List[Tuple[Tuple[str, ...], argparse.ArgumentParser]] = [((), parser)]
    while stack:
        path, command = stack.pop()
        yield path, command
        for action in command._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack += [(path + (name,), sub) for name, sub in action.choices.items()]


def _options(command: argparse.ArgumentParser) -> List[argparse.Action]:
    return [a for a in command._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _typed(action: argparse.Action, tail: Sequence[str]) -> bool:
    return any(token == option or token.startswith(option + "=")
               for token in tail for option in action.option_strings)


def unexercised_options(commands: Sequence[Tuple[str, List[str]]], work: str) -> List[str]:
    """Every CLI option no product-path argv types with a value other
    than its default, and every experiments-spec field no checked-in
    scenario sets.  Argv values are parsed in ``work``, where the
    product paths ran (some option types check their file exists)."""
    sys.path.insert(0, SRC)
    from repro.cli import build_parser
    from repro.experiments.spec import GROUP_FIELDS, ExperimentSpec

    parser = build_parser()
    commands_by_path = dict(_cli_commands(parser))
    exercised: Set[Tuple[Tuple[str, ...], str]] = set()
    here = os.getcwd()
    os.chdir(work)
    try:
        for _, argv in commands:
            if argv[1:3] != ["-m", "repro"]:
                continue
            tail, path = argv[3:], ()
            while len(path) < len(tail) and path + (tail[len(path)],) in commands_by_path:
                path += (tail[len(path)],)
            parsed = vars(parser.parse_args(tail))
            for action in _options(commands_by_path[path]):
                if _typed(action, tail) and parsed.get(action.dest) != action.default:
                    exercised.add((path, action.dest))
    finally:
        os.chdir(here)
    missing = [
        " ".join(("repro",) + path + (max(action.option_strings, key=len),))
        for path, command in sorted(commands_by_path.items())
        for action in _options(command)
        if (path, action.dest) not in exercised
    ]
    spec_fields: Set[str] = set()
    for name in sorted(os.listdir(SCENARIOS)):
        if name.endswith(".yaml"):
            spec = ExperimentSpec.from_file(os.path.join(SCENARIOS, name))
            spec_fields.update(spec.defaults)
            spec_fields.update(k for axis in spec.axes for v in axis.values for k in v.patch)
            spec_fields.update(k for _, overrides in spec.extra_cells for k in overrides)
    missing += [f"spec field {group}.{leaf}" for group, leaves in GROUP_FIELDS.items()
                for leaf in leaves if f"{group}.{leaf}" not in spec_fields]
    return missing


# -- the audit ------------------------------------------------------------------


@dataclass
class Audit:
    uncalled: List[Definition] = field(default_factory=list)
    allowlisted: List[Definition] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    arms: List[Arm] = field(default_factory=list)
    called: int = 0
    total: int = 0
    lines_run: int = 0
    lines_total: int = 0


def audit(src: str, commands: Sequence[Tuple[str, List[str]]], allowlist: str,
          work: str, *, verbose: bool = False) -> Audit:
    defs, containers = definitions(src)
    entries, problems = read_allowlist(allowlist)
    names = containers | {d.name for d in defs}
    problems += [f"{allowlist}: {name} names no module, class or function in {src}"
                 for name in sorted(entries) if name not in names]
    run = record_run(commands, src, work, verbose=verbose)
    result = Audit(problems=problems, total=len(defs))
    for d in defs:
        if (d.path, d.line) in run.entered:
            result.called += 1
        elif any(_covers(entry, d.name) for entry in entries):
            result.allowlisted.append(d)
        else:
            result.uncalled.append(d)
    result.arms, result.lines_total, result.lines_run = open_arms(src, run, list(entries))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    work = tempfile.mkdtemp(prefix="find_uncalled_")
    t0 = time.perf_counter()
    try:
        _prepare_work(work)
        commands = product_paths()
        print(f"running {len(commands)} product paths under the line hook", flush=True)
        result = audit(SRC, commands, ALLOWLIST, work, verbose=True)
        options = unexercised_options(commands, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    by_owner: Dict[str, List[Arm]] = defaultdict(list)
    for arm in result.arms:
        by_owner[arm.owner].append(arm)
    for owner, arms in by_owner.items():
        print(f"open arm  {owner}  " + ", ".join(
            f"{os.path.relpath(a.path, ROOT)}:{a.line} {a.kind} ({a.lines} lines)" for a in arms))
    for option in options:
        print(f"unexercised option  {option}")
    for d in result.uncalled:
        print(f"uncalled  {os.path.relpath(d.path, ROOT)}:{d.line}  {d.name}")
    for problem in result.problems:
        print(f"allowlist {problem}")
    print(
        f"{result.lines_run} of {result.lines_total} lines outside guards run; "
        f"{len(result.arms)} open arm(s) ({sum(a.lines for a in result.arms)} lines) "
        f"in {len(by_owner)} function(s); {len(options)} unexercised option(s)"
    )
    print(
        f"{result.called} of {result.total} functions called, "
        f"{len(result.allowlisted)} allowlisted, {len(result.uncalled)} uncalled "
        f"({time.perf_counter() - t0:.0f}s)"
    )
    return 1 if result.uncalled or result.problems or options else 0


if __name__ == "__main__":
    sys.exit(main())
