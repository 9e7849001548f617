"""List the functions and methods in ``src`` that no product path calls.

A call-event audit at function granularity.  Every product path runs
as a subprocess with a ``sitecustomize`` hook on its ``PYTHONPATH``
that installs ``sys.setprofile`` and ``threading.setprofile``: each
process (the CLI's, every multiprocessing worker, fork or spawn, and
every thread the service starts) appends each ``src`` function it
enters for the first time to a record file of its own, written as the
call happens, so a worker that exits through ``os._exit`` or is killed
still leaves its record behind.  The product paths are every CLI
command's smoke, every checked-in scenario, ``benchmarks/e2e/run.py
--smoke`` and the service storm; the unit tests are not one of them.

The ``src`` functions are read off the source with :mod:`ast`: every
module-level function and every method of a class at any depth
(functions nested inside functions are reached through their parent
and are not listed).  A function nothing called is reported unless
``tools/uncalled_allowlist.txt`` keeps it: one entry a line,
``<dotted name>: <reason>``, where a module or class name covers every
function inside it.  An entry naming nothing that exists, or giving no
reason, fails the audit as well.

Usage::

    python tools/find_uncalled.py

Exit status is 0 when every uncalled function is allowlisted and the
allowlist is clean, 1 otherwise (and 2 when a product path fails).
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "tools", "uncalled_allowlist.txt")

#: the hook every audited process imports at startup; ``{records}`` is
#: the directory the per-process record files go to, ``{prefix}`` the
#: real path of the audited source tree
_BOOT = '''\
import os, sys, threading

_RECORDS = {records!r}
_PREFIX = {prefix!r}
_seen = set()
_out = [None, None]  # pid, fd


def _record(filename, line):
    pid = os.getpid()
    if _out[0] != pid:  # first record of this process (or of a forked child)
        path = os.path.join(_RECORDS, "calls-%d.txt" % pid)
        _out[:] = [pid, os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
    os.write(_out[1], ("%s\\t%d\\n" % (filename, line)).encode())


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key not in _seen:
            _seen.add(key)
            real = os.path.realpath(key[0])
            if real.startswith(_PREFIX):
                _record(real, key[1])


sys.setprofile(_hook)
threading.setprofile(_hook)
'''

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

_SCORERS = ("shared_peaks", "likelihood", "hyperscore", "xcorr", "hypergeometric")


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
        for algorithm in ("algorithm_a", "algorithm_a_nomask", "algorithm_b",
                          "master_worker", "xbang")
    ]
    paths += [
        ("search fasta", repro + ["search", "--database", "db.fasta", "-m", "8", "--show", "1"]),
        ("search resident store", search + ["--seed", "3", "-a", "serial", "--scorer",
                                            "hyperscore", "--index-path", "resident"]),
        ("search multiproc resident store",
         search + ["--seed", "3", "-a", "multiproc", "-p", "2", "--scorer", "hyperscore",
                   "--index-path", "resident"]),
        ("search partitioned store", search + ["--seed", "3", "-a", "serial",
                                                "--index-path", "part"]),
        ("search streamed", search + ["-a", "serial", "--stream", "--partition-mb", "0.01",
                                      "--memory-budget-mb", "0.05"]),
        ("search autotune", search + ["--autotune", "--report-out", "autotune.json"]),
        ("search spawn", search + ["-a", "multiproc", "-p", "2", "--start-method", "spawn"]),
        ("search one worker", search + ["-a", "multiproc", "-p", "1"]),
        ("search fault plan", search + ["-a", "multiproc", "-p", "2",
                                        "--fault-plan", "search_plan.json", "--max-retries", "2"]),
        ("search checkpoint", search + ["-a", "multiproc", "-p", "2",
                                        "--checkpoint", "ck.json", "-o", "a.tsv"]),
        ("search resume", search + ["-a", "multiproc", "-p", "2",
                                    "--checkpoint", "ck.json", "--resume", "-o", "b.tsv"]),
        ("trace chrome", repro + ["trace", "-n", "60", "-m", "8", "-a", "algorithm_a",
                                  "-p", "3", "--out", "trace.json"]),
        ("trace ascii", repro + ["trace", "-n", "60", "-m", "8", "-a", "algorithm_b",
                                 "-p", "3", "--format", "ascii"]),
        ("trace multiproc", repro + ["trace", "-n", "60", "-m", "8", "-a", "multiproc",
                                     "-p", "2", "--out", "trace_mp.json"]),
        ("serve storm", repro + ["serve", "-n", "150", "-m", "32", "--fault-plan",
                                 "service_plan.json", "--report-out", "serve.json"]),
        ("serve resident store", repro + ["serve", "-n", "60", "--seed", "3", "-m", "16",
                                          "--index-path", "resident", "--policy", "shed"]),
    ]
    scenarios = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(scenarios)):
        if name.endswith(".yaml"):
            spec = os.path.join(scenarios, name)
            paths.append((f"scenario {name}", repro + [
                "experiments", "run", spec, "--out", f"exp_{name}", "--workers", "2", "--quiet"]))
    smoke = os.path.join(scenarios, "smoke.yaml")
    paths += [
        ("experiments resume", repro + ["experiments", "resume", smoke,
                                        "--out", "exp_smoke.yaml", "--quiet"]),
        ("experiments report", repro + ["experiments", "report", smoke, "--out",
                                        "exp_smoke.yaml", "--format", "markdown",
                                        "--update", "EXPERIMENTS.md"]),
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
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            module = _module_name(path, src)
            containers.add(module)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            _walk(tree.body, module, path, defs, containers)
    return defs, containers


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
class Audit:
    uncalled: List[Definition] = field(default_factory=list)
    allowlisted: List[Definition] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    called: int = 0
    total: int = 0


def record_calls(commands: Sequence[Tuple[str, List[str]]], src: str, work: str,
                 *, verbose: bool = False) -> Set[Tuple[str, int]]:
    """Run each command under the call hook; the ``(path, first line)``
    of every ``src`` function any of their processes entered."""
    records = os.path.join(work, ".calls")
    boot = os.path.join(work, ".boot")
    os.makedirs(records, exist_ok=True)
    os.makedirs(boot, exist_ok=True)
    prefix = os.path.realpath(src) + os.sep
    with open(os.path.join(boot, "sitecustomize.py"), "w") as fh:
        fh.write(_BOOT.format(records=records, prefix=prefix))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [boot, os.path.realpath(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for label, argv in commands:
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if verbose:
            print(f"  {time.perf_counter() - t0:6.1f}s  {label}", flush=True)
        if done.returncode != 0:
            raise RuntimeError(f"{label} exited {done.returncode}:\n{done.stdout[-4000:]}")
    called: Set[Tuple[str, int]] = set()
    for name in os.listdir(records):
        with open(os.path.join(records, name), encoding="utf-8") as fh:
            for line in fh:
                path, _, number = line.rstrip("\n").rpartition("\t")
                if path:
                    called.add((path, int(number)))
    return called


def audit(src: str, commands: Sequence[Tuple[str, List[str]]], allowlist: str,
          work: str, *, verbose: bool = False) -> Audit:
    defs, containers = definitions(src)
    entries, problems = read_allowlist(allowlist)
    names = containers | {d.name for d in defs}
    problems += [f"{allowlist}: {name} names no module, class or function in {src}"
                 for name in sorted(entries) if name not in names]
    called = record_calls(commands, src, work, verbose=verbose)
    result = Audit(problems=problems, total=len(defs))
    for d in defs:
        if (d.path, d.line) in called:
            result.called += 1
        elif any(_covers(entry, d.name) for entry in entries):
            result.allowlisted.append(d)
        else:
            result.uncalled.append(d)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    work = tempfile.mkdtemp(prefix="find_uncalled_")
    t0 = time.perf_counter()
    try:
        _prepare_work(work)
        print(f"running {len(product_paths())} product paths under the call hook", flush=True)
        result = audit(SRC, product_paths(), ALLOWLIST, work, verbose=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for d in result.uncalled:
        print(f"uncalled  {os.path.relpath(d.path, ROOT)}:{d.line}  {d.name}")
    for problem in result.problems:
        print(f"allowlist {problem}")
    print(
        f"{result.called} of {result.total} functions called, "
        f"{len(result.allowlisted)} allowlisted, {len(result.uncalled)} uncalled "
        f"({time.perf_counter() - t0:.0f}s)"
    )
    return 1 if result.uncalled or result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
