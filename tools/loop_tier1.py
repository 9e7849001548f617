"""Run the tier-1 suite N times in a row; stop at the first red run.

ROADMAP item 1(a): "tier-1 is green on every run, not on most runs" needs
evidence, not three lucky runs.  This runs the tier-1 command (ROADMAP's
``python -m pytest -x -q`` with ``src`` on ``PYTHONPATH``) ``--runs``
times back to back, writes one line per run — verdict, wall seconds,
tests passed — and stops at the first red run, keeping that run's whole
output beside the log so the failure is a bug report with a reproducer
rather than a rumour.

Usage::

    python tools/loop_tier1.py                      # 20 runs -> tools/tier1_loop.txt
    python tools/loop_tier1.py --runs 3 --out /tmp/loop.txt
    python tools/loop_tier1.py -- tests/unit -k plan   # extra pytest arguments

Exit status is 0 when every run was green, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import platform
import re
import subprocess
import sys
import time
from typing import List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a ``-q`` progress line: outcome characters, then the percentage
_PROGRESS = re.compile(r"^([.sxXFE]+)\s+\[\s*\d+%\]\s*$")


def count_passed(output: str) -> int:
    """Tests passed, read off the progress dots (``addopts = -q`` plus the
    tier-1 ``-q`` leaves no summary line to parse)."""
    return sum(
        match.group(1).count(".")
        for match in map(_PROGRESS.match, output.splitlines())
        if match
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--out", default=os.path.join(_ROOT, "tools", "tier1_loop.txt"))
    parser.add_argument("pytest_args", nargs="*", help="extra pytest arguments, after --")
    args = parser.parse_args(argv)

    command = [sys.executable, "-m", "pytest", "-x", "-q", *args.pytest_args]
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    green = 0
    with open(args.out, "w", encoding="utf-8") as log:

        def say(line: str) -> None:
            print(line, flush=True)
            log.write(line + "\n")
            log.flush()

        say(f"# {' '.join(command[1:])}  (PYTHONPATH=src, cwd = repository root)")
        say(
            f"# python {platform.python_version()} on {platform.machine()}, "
            f"{os.cpu_count()} cpus, {args.runs} consecutive runs"
        )
        for run in range(1, args.runs + 1):
            t0 = time.perf_counter()
            done = subprocess.run(
                command, cwd=_ROOT, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            wall = time.perf_counter() - t0
            verdict = "green" if done.returncode == 0 else f"RED (exit {done.returncode})"
            say(f"run {run:02d}  {verdict}  {wall:7.1f}s  {count_passed(done.stdout)} passed")
            if done.returncode != 0:
                red = f"{args.out}.red"
                with open(red, "w", encoding="utf-8") as fh:
                    fh.write(done.stdout)
                say(f"# stopped at the first red run; its output is in {red}")
                break
            green += 1
        say(f"# {green} of {args.runs} runs green")
    return 0 if green == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
