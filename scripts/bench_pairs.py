#!/usr/bin/env python3
"""Benchmark a parent commit against this source tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--workloads build,eval,recombine] [--seeds 1] [--pairs 10] \\
        [--claim METRIC@WORKLOAD ...] [--trace] \\
        [--against BENCH_<m>.json [--deliberate KEY ...]]

Both sides run from sibling temporary directories, removed at exit and on
error: ``parent/`` holds ``REV``'s files (``git archive``), ``change/`` a
copy of this working tree's files that git tracks or does not ignore. A
tree's path alone can move a metric: the same files read ``build`` peak
RSS about 0.6 MB apart from two directories whose paths differ in length,
so both sides run from paths of one length. The script refuses to run
(exit 2) when the two trees' ``perfbench/`` or ``BENCHMARK.json`` differ.

With ``--against``, it first runs ``scripts/fingerprints.py`` in both
trees. The file written records both sets of fingerprints: the change's
as ``fingerprints`` (what a later ``--against`` reads), the parent's as
``parent_fingerprints``. When a key of the change differs from the
``--against`` file's, or a ``--deliberate`` key does not, it names them
on standard error, writes the file without running the benchmark, and
exits 1; a difference named with ``--deliberate KEY`` is listed in the
file instead.

For every workload (by default, every one
``BENCHMARK.json`` lists) and seed it runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0``, ``T`` being the file's
``run_seconds``, in each tree ``--pairs`` times, the side that runs first
alternating from pair to pair, and reads only the command's standard
output. With ``--trace`` it then runs every workload's ``--trace 1``
benchmark, on the first seed only, in ``--pairs`` alternating pairs the
same way, and records each per-layer metric's median and quartiles per
side as ``trace_summary`` (the per-layer metrics and their better
directions are those ``BENCHMARK.json`` lists); these spans show where
the time goes and carry no verdict.

The JSON file written holds the machine, the commands, every run and,
per workload: each metric's median and quartiles on each side
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
won (ties count for neither) and the failed operations per round. Its
verdicts follow the benchmark's rules:

* a claim (``--claim``) is met when the change won at least nine tenths
  of the pairs and its median is better than the parent's by more than
  the parent's interquartile distance;
* every other pairing of metric and workload is ``worse`` when the
  change's median is worse than the parent's by more than the metric's
  ``BENCHMARK.json`` bound, ``unresolved`` when either side's spread
  (interquartile distance over median) is wider than the bound and some
  change run does not read better than every parent run, and ``within
  bound`` otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; a single value is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b`` when ``direction`` ("higher"
    or "lower") is better."""
    return a > b if direction == "higher" else a < b


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric (name -> better direction): each side's median and
    quartiles and the pairs the change won; and each side's failed
    operations per round. ``runs`` are one workload's runs, each with
    ``side``, ``seed``, ``pair``, ``metrics``, ``failed`` and ``rounds``."""
    by_pair: dict[tuple, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault((run["seed"], run["pair"]), {})[run["side"]] = run
    pairs = [p for p in by_pair.values() if set(p) == set(SIDES)]
    out: dict = {"pairs": len(pairs), "metrics": {}}
    for name, direction in metrics.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        out["metrics"][name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_won": sum(better(p["change"]["metrics"][name], p["parent"]["metrics"][name], direction)
                              for p in pairs),
            "every_change_run_better": all(better(c, p, direction)
                                           for c in values["change"] for p in values["parent"]),
        }
    out["failed_per_round"] = {
        side: sorted({run["failed"] / run["rounds"] for run in runs if run["side"] == side})
        for side in SIDES
    }
    return out


def claim_verdict(summary: dict, metric: str, direction: str) -> dict:
    """Whether the change won at least nine tenths of the pairs and beat
    the parent's median by more than the parent's interquartile distance."""
    m = summary["metrics"][metric]
    parent, change = m["parent"], m["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = change["median"] - parent["median"] if direction == "higher" else parent["median"] - change["median"]
    won_enough = m["change_won"] >= math.ceil(0.9 * summary["pairs"])
    return {
        "change_won": m["change_won"], "pairs": summary["pairs"], "won_nine_tenths": won_enough,
        "median_gain": gap, "parent_iqr": iqr, "gain_beyond_iqr": gap > iqr,
        "relative_gain": gap / parent["median"], "met": won_enough and gap > iqr,
    }


def bound_verdict(summary: dict, metric: str, direction: str, bound: float) -> dict:
    """``worse``, ``unresolved`` or ``within bound`` (see the module docstring)."""
    m = summary["metrics"][metric]
    parent, change = m["parent"]["median"], m["change"]["median"]
    worse_by = (parent - change if direction == "higher" else change - parent) / parent
    spread = max((m[side]["q3"] - m[side]["q1"]) / m[side]["median"] for side in SIDES)
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound and not m["every_change_run_better"]:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"bound": bound, "worse_by": worse_by, "spread": spread, "verdict": verdict}


def verdicts(summaries: dict[str, dict], benchmark: dict, claims: list[tuple[str, str]]) -> dict:
    """Claim verdicts for ``claims`` ((metric, workload) pairs) and bound
    verdicts for every other metric on every workload summarized."""
    ends = {m["name"]: m for m in benchmark["end_to_end"]}
    out: dict = {"claims": {}, "bounds": {}}
    for workload, summary in summaries.items():
        for name, spec in ends.items():
            key = f"{name}@{workload}"
            if (name, workload) in claims:
                out["claims"][key] = claim_verdict(summary, name, spec["better"])
            else:
                out["bounds"][key] = bound_verdict(summary, name, spec["better"], spec["bound"])
    return out


def parse_claim(text: str) -> tuple[str, str]:
    metric, sep, workload = text.partition("@")
    if not (sep and metric and workload):
        raise argparse.ArgumentTypeError(f"expected METRIC@WORKLOAD, got {text!r}")
    return metric, workload


def differing_bench_files(a: Path, b: Path) -> list[str]:
    """Files under ``perfbench/`` and ``BENCHMARK.json`` that differ or
    exist in only one of the trees ``a`` and ``b`` (bytecode caches aside)."""
    def files(root: Path) -> set[str]:
        found = {str(p.relative_to(root)) for p in (root / "perfbench").rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts}
        return found | {"BENCHMARK.json"}
    names = files(a) | files(b)
    return sorted(n for n in names
                  if not ((a / n).is_file() and (b / n).is_file() and filecmp.cmp(a / n, b / n, shallow=False)))


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` of the repository at ``root`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy the files of the working tree at ``root`` that git tracks or
    does not ignore into ``dest``."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        if (root / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def tree_fingerprints(tree: Path) -> dict[str, str]:
    """The digests ``scripts/fingerprints.py`` prints for ``tree``, run in that tree."""
    cmd = [sys.executable, "scripts/fingerprints.py"]
    proc = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise SystemExit(f"scripts/fingerprints.py in {tree} exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout)


def fingerprint_check(change: dict[str, str], recorded: dict[str, str], deliberate: list[str]) -> dict:
    """The keys of ``change`` whose digest ``recorded`` lacks or disagrees
    with, those of them named in ``deliberate``, and the faults: a
    difference not named, or a name that does not differ."""
    differing = [key for key, digest in change.items() if recorded.get(key) != digest]
    return {
        "differing": differing,
        "deliberate": [key for key in differing if key in deliberate],
        "undeclared": [key for key in differing if key not in deliberate],
        "not_differing": [key for key in deliberate if key not in differing],
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py --trace TRACE`` run in ``tree``: its result
    line, round count and exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise SystemExit(f"{' '.join(cmd[1:])} in {tree} exited {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    header = next(line for line in lines if line.startswith(f"# {workload} "))
    rounds = int(header.split("rounds=")[1].split()[0])
    return {
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "rounds": rounds, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_pairs(trees: dict[str, Path], workloads: list[str], seeds: list[int], pairs: int,
              seconds: float, trace: int) -> list[dict]:
    """``pairs`` alternating pairs of :func:`run_bench` runs for every
    workload and seed, the side that runs first alternating from pair to
    pair."""
    runs = []
    for workload in workloads:
        for seed in seeds:
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_bench(trees[side], workload, seed, seconds, trace)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "first": order[0], **run})
                    print(f"{workload} seed={seed} trace={trace} pair={pair} {side}: {run['metrics']}",
                          file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--workloads", help="comma-separated (default: every benchmark workload)")
    parser.add_argument("--seeds", default="1", help="comma-separated benchmark seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", type=parse_claim, action="append", default=[])
    parser.add_argument("--trace", action="store_true",
                        help="also run the per-layer (--trace 1) benchmark in pairs, on the first seed")
    parser.add_argument("--against", type=Path, help="a BENCH_<n>.json whose fingerprints must hold")
    parser.add_argument("--deliberate", action="append", default=[], metavar="KEY",
                        help="a fingerprint key this change alters on purpose")
    args = parser.parse_args(argv)
    if args.deliberate and args.against is None:
        parser.error("--deliberate needs --against")

    root = Path(__file__).resolve().parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    parent_rev = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    report: dict = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "parent_commit": parent_rev,
        "change": f"working tree at {git(root, 'rev-parse', 'HEAD')}",
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        export(root, parent_rev, parent)
        copy_working_tree(root, change)
        differ = differing_bench_files(parent, change)
        if differ:
            print(f"error: the benchmark differs between {args.parent} and this tree: {', '.join(differ)}",
                  file=sys.stderr)
            return 2
        trees = {"parent": parent, "change": change}
        if args.against is not None:
            recorded = json.loads(args.against.read_text(encoding="utf-8"))["fingerprints"]
            report["fingerprints"] = tree_fingerprints(change)
            report["parent_fingerprints"] = tree_fingerprints(parent)
            check = fingerprint_check(report["fingerprints"], recorded, args.deliberate)
            report["fingerprint_check"] = {"against": args.against.name, **check}
            if check["undeclared"] or check["not_differing"]:
                for key in check["undeclared"]:
                    print(f"error: fingerprint {key} differs from {args.against}", file=sys.stderr)
                for key in check["not_differing"]:
                    print(f"error: --deliberate {key} does not differ from {args.against}", file=sys.stderr)
                args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                return 1
        runs = run_pairs(trees, workloads, seeds, args.pairs, seconds, trace=0)
        trace_runs = run_pairs(trees, workloads, seeds[:1], args.pairs, seconds, trace=1) if args.trace else []

    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    summaries = {w: summarize([r for r in runs if r["workload"] == w], directions) for w in workloads}
    commands = [(w, s, 0) for w in workloads for s in seeds]
    if args.trace:
        layer_directions = {m["name"]: m["better"] for m in benchmark["per_layer"]}
        report["trace_summary"] = {w: summarize([r for r in trace_runs if r["workload"] == w], layer_directions)
                                   for w in workloads}
        report["trace_runs"] = trace_runs
        commands += [(w, seeds[0], 1) for w in workloads]
    report.update({
        "commands": [f"python3 perfbench/run.py --workload {w} --seed {s} --seconds {seconds:g} --trace {t}"
                     for w, s, t in commands],
        "pairs": args.pairs,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "summary": summaries,
        "verdicts": verdicts(summaries, benchmark, args.claim),
        "runs": runs,
    })
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report["verdicts"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
