"""Command line of the end-to-end benchmark.

::

    run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
        one run of one workload in this process; the last line of standard
        output is the result as one JSON object
    run.py [--seed N] [--workload NAME]... [--traced] [--smoke] [--repeat K] [--out FILE]
        the suite: the four-way identity check, then every named workload
        (default: all six), each run in a fresh process of the command above
    run.py compare A.json B.json
        apply the bounds of BENCHMARK.json to two suite results
    run.py selftest
        checks of the harness itself
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy

if __package__ in (None, ""):
    # run as a script: import as the package, and keep this directory's
    # module names (stats, spans, ...) out of the top-level namespace
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import adapters  # noqa: E402
from benchmarks.e2e.harness import RUNS, digest, run_workload  # noqa: E402
from benchmarks.e2e.layers import PER_LAYER  # noqa: E402
from benchmarks.e2e.stats import spread  # noqa: E402
from benchmarks.e2e.workloads import PARALLELISM, WORKLOADS  # noqa: E402

BENCHMARK_JSON = adapters.ROOT / "BENCHMARK.json"


def _format(name: str, value: float, unit: str) -> str:
    return f"  {name:<44} {value:>16.6g} {unit}"


def dump(doc: Dict[str, Any]) -> str:
    """Indented JSON with each innermost list and object on one line
    (one line per metric), which keeps result files diffable."""
    text = json.dumps(doc, indent=1)
    for innermost in (r"\[[^\[\]{}]*\]", r"\{[^{}]*\}"):
        text = re.sub(innermost, lambda m: re.sub(r"\s+", " ", m.group(0)), text)
    return text + "\n"


# -- one run ----------------------------------------------------------------


def single(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload[0]](smoke=args.smoke)
    result = run_workload(workload, args.seed, args.seconds, traced=bool(args.trace))
    info = result.pop("info")
    print(f"# {json.dumps(info)}")
    for name, m in result["metrics"].items():
        print(_format(name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


# -- the suite ----------------------------------------------------------------


def host() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def identity_check(seed: int) -> Dict[str, int]:
    """Digest of the hits of direct, resident, streamed and multiproc
    searches of one small shared input; all four must be equal."""
    workdir = RUNS / "work" / "identity"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        database, spectra = adapters.make_inputs(seed, 120, 60)
        adapters.write_inputs(database, spectra, workdir / "db.fasta", workdir / "q.mgf")
        database = adapters.read_database(workdir / "db.fasta")
        spectra = adapters.read_queries(workdir / "q.mgf")
        adapters.save_resident_store(database, workdir / "resident")
        adapters.save_partitioned_store(database, workdir / "streamed", partition_mb=1.0)
        digests: Dict[str, List[int]] = {k: [] for k in ("direct", "resident", "streamed", "multiproc")}
        for scorer in ("hyperscore", "likelihood"):  # one posting-served, one matrix-served
            direct = adapters.search_config(scorer, index=False, sweep=True)
            indexed = adapters.search_config(scorer, index=True, sweep=True)
            digests["direct"].append(digest(adapters.serial_search(database, spectra, direct)))
            for kind in ("resident", "streamed"):
                store = adapters.open_store(workdir / kind)
                digests[kind].append(
                    digest(adapters.serial_search(database, spectra, indexed, store=store))
                )
            digests["multiproc"].append(
                digest(adapters.multiproc_search(database, spectra, direct, PARALLELISM, 2))
            )
        return {engine: hash(tuple(parts)) for engine, parts in digests.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=adapters.ROOT)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run exited with code {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def suite(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds
    doc: Dict[str, Any] = {
        "schema": "bench_e2e.result/1",
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "host": host(),
        "surface": adapters.surface(),
        "workloads": {},
    }
    print("== identity: direct = resident = streamed = multiproc")
    doc["identity"] = identity_check(args.seed)
    identical = len(set(doc["identity"].values())) == 1
    print(f"  {'equal' if identical else 'DIFFERENT'}: {doc['identity']}")
    ok = identical
    for name in names:
        entry: Dict[str, Any] = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "correct": True}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace and not args.traced:
                continue
            for rep in range(args.repeat):
                print(f"== {name} trace={trace} run {rep + 1}/{args.repeat}")
                result = _child(name, args.seed, seconds, trace, args.smoke)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["correct"] = entry["correct"] and result["correct"]
                for metric, m in result["metrics"].items():
                    slot = entry[section].setdefault(metric, {"unit": m["unit"], "values": []})
                    slot["values"].append(m["value"])
        ok = ok and entry["correct"] and entry["attempted"] > 0
        doc["workloads"][name] = entry

    print("== summary (median of runs)")
    for name, entry in doc["workloads"].items():
        share = entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0
        print(f"{name}: checked {entry['attempted']} query-searches, failed_share {share:g}")
        for metric, slot in entry["end_to_end"].items():
            print(_format(metric, statistics.median(slot["values"]), slot["unit"]))
    if args.out:
        Path(args.out).write_text(dump(doc))
        print(f"wrote {args.out}")
    if not ok:
        print("FAILED: a hit list differs from the serial reference, or a workload ran unchecked")
    return 0 if ok else 1


# -- compare ------------------------------------------------------------------


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for runs ``b`` against runs ``a``.

    Worse means b's median is worse than a's by more than ``bound`` of
    a's median.  Where either side's run-to-run spread is wider than the
    bound the pair cannot resolve that, unless every run of b reads
    better than every run of a.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return "ok" if all_better else "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    return "worse" if sign * (med_b - med_a) > bound * abs(med_a) else "ok"


def compare(path_a: str, path_b: str, spec: Optional[Dict[str, Any]] = None) -> int:
    spec = spec or json.loads(BENCHMARK_JSON.read_text())
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    exact = [n for n, unit, _b in PER_LAYER if unit in ("count", "B") or n == "store.bytes_per_db_byte"]
    worse = 0
    for name in a:
        if name not in b:
            continue
        print(name)
        for metric in spec["end_to_end"]:
            va = a[name]["end_to_end"][metric["name"]]["values"]
            vb = b[name]["end_to_end"][metric["name"]]["values"]
            v = verdict(va, vb, metric["better"], metric["bound"])
            worse += v == "worse"
            print(
                f"  {metric['name']:<20} {statistics.median(va):>14.6g} -> "
                f"{statistics.median(vb):>14.6g} {metric['unit']:<4} bound {metric['bound']:.2f}  {v}"
            )
        differs = [
            n for n in exact
            if n in a[name]["per_layer"] and n in b[name]["per_layer"]
            and a[name]["per_layer"][n]["values"][0] != b[name]["per_layer"][n]["values"][0]
        ]
        if a[name]["per_layer"] and b[name]["per_layer"]:
            print(f"  counts: {len(exact) - len(differs)} identical, differing: {differs or 'none'}")
    return 1 if worse else 0


# -- entry ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    if argv[:1] == ["selftest"]:
        from benchmarks.e2e.selftest import selftest

        return selftest()

    default_seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(default_seconds)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs one workload: give exactly one --workload")
        return single(args)
    return suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
