#!/usr/bin/env python3
"""fragsmith benchmark: the build, eval and recombine paths.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a fragsmith source tree. The inputs are generated
from ``--seed`` (see ``gen.py``); fragsmith runs from ``src/`` in child
processes, one at a time. Every round's outputs are checked (see
``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones, taken from spans recorded around fragsmith's public functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_REPS = 21
BUILD_SHARD_SIZE = 500


class CommandError(RuntimeError):
    pass


@dataclass
class Child:
    wall_s: float
    rss_mb: float  # its peak resident set size
    stdout: str


@dataclass
class Round:
    wall_s: float  # wall time of the round's timed work
    items: int  # items the throughput counts
    attempted: int
    failed: int
    peak_rss_mb: float
    # a workload's own rates: name -> (items, seconds) in this round
    rates: dict[str, tuple[int, float]] = field(default_factory=dict)


class Runner:
    """Runs one child process at a time; records wall time, peak RSS and,
    for traced children, their span summaries."""

    def __init__(self, root: Path, work: Path, trace_dir: Path | None) -> None:
        self.root = root
        self.work = work
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced: list[tuple[float, dict]] = []

    def run(self, args: list[str], tag: str) -> Child:
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                args, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            raise CommandError(f"{' '.join(args[1:])} exited {proc.returncode}: {' | '.join(tail)}")
        return Child(wall, usage.ru_maxrss / 1024, out_path.read_text())

    def trace_prefix(self, tag: str) -> str:
        return str(self.trace_dir / tag)

    def keep_trace(self, tag: str, wall_s: float) -> None:
        """Keep the span summary a traced child wrote, with the wall time
        its spans are measured against."""
        summary = json.loads(Path(self.trace_prefix(tag) + ".summary.json").read_text())
        self.traced.append((wall_s, summary))

    def fragsmith(self, cli_args: list[str], tag: str, traced: bool = False) -> Child:
        if not traced:
            return self.run([sys.executable, "-m", "fragsmith.cli", *cli_args], tag)
        child = self.run([sys.executable, str(HERE / "spans.py"), self.trace_prefix(tag), *cli_args], tag)
        self.keep_trace(tag, child.wall_s)
        return child


# --- workloads -----------------------------------------------------------------


class CliWorkload:
    """A workload whose round runs fragsmith CLI commands."""

    def round(self, runner: Runner, traced: bool, done: list[Round]) -> None:
        """Run one round, append its measurement to ``done``, then check
        its outputs."""
        raise NotImplementedError

    def rounds(self, runner: Runner, seconds: float, traced: bool, done: list[Round]) -> None:
        """Whole rounds until ``seconds`` of timed work have run."""
        while not done or sum(r.wall_s for r in done) < seconds:
            self.round(runner, traced, done)


class Build(CliWorkload):
    """``fragsmith preprocess`` then ``fragsmith build --reactions``; items
    are corpus lines through both commands."""

    def __init__(self, seed: int, inputs: Path, work: Path, out_dir: Path) -> None:
        self.seed = seed
        self.inputs = inputs
        self.work = work
        self.out_dir = out_dir
        self.expected = gen.make_build(seed, inputs)
        self.digests: list[str] | None = None

    def setup_rep(self, runner: Runner) -> float:
        lib = self.work / "one_lib.tsv"
        pre = runner.fragsmith(["preprocess", str(self.inputs / "one.smi"), "--out", str(lib)], "setup-preprocess")
        build = runner.fragsmith(
            ["build", "--library", str(lib), "--reactions", str(self.inputs / "one_reactions.tsv"),
             "--out", str(self.work / "one_ds")], "setup-build")
        return pre.wall_s + build.wall_s

    def round(self, runner: Runner, traced: bool, done: list[Round]) -> None:
        lib = self.work / "lib.tsv"
        ds = self.work / "ds"
        shutil.rmtree(ds, ignore_errors=True)
        pre = runner.fragsmith(
            ["preprocess", str(self.inputs / "corpus.smi"), "--out", str(lib)], "preprocess", traced)
        build = runner.fragsmith(
            ["--seed", str(self.seed), "--shards", str(BUILD_SHARD_SIZE), "build",
             "--library", str(lib), "--reactions", str(self.inputs / "reactions.tsv"), "--out", str(ds)],
            "build", traced)
        summary = json.loads(build.stdout)
        lines = self.expected["lines"]
        done.append(Round(
            wall_s=pre.wall_s + build.wall_s,
            items=lines,
            attempted=lines + self.expected["reactions"],
            failed=0,
            peak_rss_mb=max(pre.rss_mb, build.rss_mb),
            rates={"preprocess_mol_per_s": (lines, pre.wall_s),
                   "build_records_per_s": (summary["records"], build.wall_s)},
        ))
        library = checks.check_library(lib.read_text(), self.expected)
        digests = checks.check_dataset(ds, library, self.expected, summary)
        if self.digests is None:
            self.digests = digests
            self._compare_with_earlier_runs(runner.root, digests)
        checks.require(digests == self.digests, "shard sha256s differ between rounds of one seed")

    def _compare_with_earlier_runs(self, root: Path, digests: list[str]) -> None:
        """Require the shard digests of an earlier run of this seed on the
        same source and inputs. The key holds a digest of both, so a change
        that alters the output on purpose starts a new record."""
        key = hashlib.sha256()
        files = sorted((root / "src" / "fragsmith").rglob("*"))
        files += [self.inputs / "corpus.smi", self.inputs / "reactions.tsv"]
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                key.update(f"{path.relative_to(root)}\0".encode())
                key.update(path.read_bytes())
        path = self.out_dir / f"build-seed{self.seed}-{key.hexdigest()[:16]}-shards.json"
        if path.exists():
            checks.require(json.loads(path.read_text()) == digests,
                           f"shard sha256s differ from an earlier run of seed {self.seed} on the same source")
        else:
            path.write_text(json.dumps(digests) + "\n")


class Eval(CliWorkload):
    """``fragsmith eval preds refs`` on the drug-like pairs, then on the
    fixed cage slice; items are pairs."""

    def __init__(self, seed: int, inputs: Path, work: Path, out_dir: Path) -> None:
        self.inputs = inputs
        self.expected = gen.make_eval(seed, inputs)
        self.files = {
            name: (inputs / name).read_text().splitlines()
            for name in ("preds.txt", "refs.txt", "cage_preds.txt", "cage_refs.txt")
        }
        self.reports: list[dict] | None = None

    def setup_rep(self, runner: Runner) -> float:
        return runner.fragsmith(
            ["eval", str(self.inputs / "one_preds.txt"), str(self.inputs / "one_refs.txt")], "setup-eval").wall_s

    def round(self, runner: Runner, traced: bool, done: list[Round]) -> None:
        kinds = self.expected["kinds"]
        n_cage = self.expected["cage_pairs"]
        main = runner.fragsmith(
            ["eval", str(self.inputs / "preds.txt"), str(self.inputs / "refs.txt")], "eval", traced)
        cage = runner.fragsmith(
            ["eval", str(self.inputs / "cage_preds.txt"), str(self.inputs / "cage_refs.txt")], "eval-cage", traced)
        report = json.loads(main.stdout.splitlines()[-1])
        cage_report = json.loads(cage.stdout.splitlines()[-1])
        pairs = self.expected["n"] + n_cage
        done.append(Round(
            wall_s=main.wall_s + cage.wall_s,
            items=pairs,
            attempted=pairs,
            # A cage pair that misses exact match is the canonicalization
            # fault: two serializations of one graph, two "canonical" forms.
            failed=n_cage - round(cage_report["exact"] * n_cage),
            peak_rss_mb=max(main.rss_mb, cage.rss_mb),
            rates={"eval_pairs_per_s": (pairs, main.wall_s + cage.wall_s)},
        ))
        if self.reports is None:
            # The inputs do not change between rounds: check the first
            # round's reports in full, and later rounds for equality.
            hits = checks.check_eval(report, self.files["preds.txt"], self.files["refs.txt"],
                                     reserialized=kinds["exact"], invalid=kinds["invalid"])
            checks.require(hits == kinds["exact"], f"{hits} exact matches, {kinds['exact']} re-serialized pairs")
            checks.check_eval(cage_report, self.files["cage_preds.txt"], self.files["cage_refs.txt"],
                              reserialized=n_cage, invalid=0)
            self.reports = [report, cage_report]
        checks.require([report, cage_report] == self.reports, "eval reports differ between rounds")


class Recombine:
    """Library calls: fragment sets made untimed, then timed rounds
    of rejoin, carbon_cap, tokenize and detokenize; items are sets."""

    def __init__(self, seed: int, inputs: Path, work: Path, out_dir: Path) -> None:
        self.inputs = inputs
        self.work = work
        self.expected = gen.make_recombine(seed, inputs)

    def _args(self, molecules: str, seconds: float, tag: str) -> list[str]:
        return [
            sys.executable, str(HERE / "recombine_rounds.py"), str(self.inputs / molecules),
            "--seconds", str(seconds),
            "--out", str(self.work / f"{tag}.tsv"), "--summary", str(self.work / f"{tag}.json"),
        ]

    def setup_rep(self, runner: Runner) -> float:
        return runner.run(self._args("one.smi", 0, "setup-recombine"), "setup-recombine").wall_s

    def rounds(self, runner: Runner, seconds: float, traced: bool, done: list[Round]) -> None:
        args = self._args("molecules.smi", seconds, "recombine")
        if traced:
            args += ["--trace", runner.trace_prefix("recombine")]
        child = runner.run(args, "recombine")
        summary = json.loads((self.work / "recombine.json").read_text())
        if traced:
            # The spans cover the timed rounds only, not the untimed set-up.
            runner.keep_trace("recombine", sum(summary["round_s"]))
        sets = summary["sets"]
        done.extend(
            Round(wall_s=t, items=sets, attempted=sets, failed=0, peak_rss_mb=child.rss_mb,
                  rates={"recombine_sets_per_s": (sets, t)})
            for t in summary["round_s"]
        )
        rows = [line.split("\t") for line in (self.work / "recombine.tsv").read_text().splitlines()]
        checks.require(checks.check_recombine(rows, self.expected) == sets, "set count differs from the rows written")
        checks.require(len(set(summary["digests"])) == 1, "recombine outputs differ between rounds")


WORKLOADS = {"build": Build, "eval": Eval, "recombine": Recombine}


# --- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

DATASET_COUNTS = (
    "read", "parse_failures", "duplicates", "validity_rejections", "weight_rejections",
    "length_rejections", "kept", "emitted_pairs", "skipped_no_cut", "skipped_unparseable",
    "skipped_empty", "skipped_filtered",
)

# per-layer metric -> (span name, counter dividing its self time; None: calls)
PER_CALL_US = {
    "molgraph.parse_us": ("molgraph.parse", None),
    "molgraph.canonicalize_us": ("molgraph.canonicalize", None),
    "molgraph.validate_us": ("molgraph.validate", None),
    "molgraph.weight_us": ("molgraph.weight", None),
    "patterns.match_at_us": ("patterns.match_at", None),
    "patterns.has_match_us": ("patterns.has_match", None),
    "brics.label_us": ("brics.label", None),
    "brics.cut_us": ("brics.cut", None),
    "brics.fragment_us": ("brics.fragment", None),
    "tokenizer.tokenize_mol_us": ("tokenizer.tokenize_mol", None),
    "tokenizer.tokenize_fragset_us": ("tokenizer.tokenize_fragset", None),
    "tokenizer.detokenize_us": ("tokenizer.detokenize", None),
    "dataset.library_load_us": ("dataset.library_load", None),
    "dataset.preprocess_us_per_line": ("dataset.preprocess", "dataset.read"),
    "dataset.pretrain_us_per_pair": ("dataset.pretrain", "dataset.pretrain_pairs"),
    "dataset.finetune_us_per_pair": ("dataset.finetune", "dataset.finetune_pairs"),
    "dataset.fill_template_us": ("dataset.fill_template", None),
    "dataset.emit_us_per_record": ("dataset.emit", "dataset.records"),
    "metrics.fp_morgan_us": ("metrics.fp_morgan", None),
    "metrics.fp_path_us": ("metrics.fp_path", None),
    "metrics.fp_keys_us": ("metrics.fp_keys", None),
    "metrics.tanimoto_us": ("metrics.tanimoto", None),
    "metrics.bleu_us": ("metrics.bleu", None),
    "metrics.levenshtein_us": ("metrics.levenshtein", None),
    "metrics.evaluate_us_per_pair": ("metrics.evaluate", "metrics.pairs"),
    "recombine.rejoin_us": ("recombine.rejoin", None),
    "recombine.carbon_cap_us": ("recombine.carbon_cap", None),
}

# per-layer metric -> (counter, span name whose calls divide it)
PER_CALL_COUNTS = {
    "patterns.match_rate": ("patterns.matches", "patterns.match_at"),
    "brics.eligible_per_mol": ("brics.eligible", "brics.label"),
    "brics.cuts_per_mol": ("brics.cuts", "brics.fragment"),
    "recombine.fragments_per_set": ("recombine.fragments", "recombine.rejoin"),
}

PER_ROUND_COUNTS = [f"dataset.{f}" for f in DATASET_COUNTS] + ["metrics.fts_pairs", "metrics.fts_skipped"]


def per_layer_units() -> dict[str, str]:
    units = {name: "us" for name in PER_CALL_US}
    units.update({name: "count" for name in PER_CALL_COUNTS})
    units["patterns.match_rate"] = "ratio"
    units.update({name: "count" for name in PER_ROUND_COUNTS})
    units["trace.unaccounted_s"] = "s"
    return units


def per_layer_metrics(traced: list[tuple[float, dict]], n_rounds: int) -> dict[str, float]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    wall = root = 0.0
    for child_wall, summary in traced:
        wall += child_wall
        root += summary["root_s"]
        for name, entry in summary["layers"].items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            self_s[name] = self_s.get(name, 0.0) + entry["self_s"]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value

    metrics: dict[str, float] = {}
    for metric, (span, per) in PER_CALL_US.items():
        divisor = counters.get(per, 0) if per else calls.get(span, 0)
        metrics[metric] = self_s.get(span, 0.0) / divisor * 1e6 if divisor else 0.0
    for metric, (counter, span) in PER_CALL_COUNTS.items():
        divisor = calls.get(span, 0)
        metrics[metric] = counters.get(counter, 0) / divisor if divisor else 0.0
    for name in PER_ROUND_COUNTS:
        metrics[name] = counters.get(name, 0) / n_rounds
    # Child wall time that no root span covers: interpreter start, imports,
    # argument parsing, file I/O outside any span, and tracing overhead.
    metrics["trace.unaccounted_s"] = (wall - root) / n_rounds
    return metrics


# --- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fragsmith" / "cli.py").is_file():
        print("error: run from the root of a fragsmith source tree (no src/fragsmith here)", file=sys.stderr)
        return 2

    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    trace_dir = out_dir / "trace" if args.trace else None
    work.mkdir(parents=True)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, out_dir, work, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, out_dir: Path, work: Path, trace_dir: Path | None) -> int:
    workload = WORKLOADS[args.workload](args.seed, work / "inputs", work, out_dir)
    runner = Runner(root, work, trace_dir)
    try:
        workload.setup_rep(runner)  # warm-up: bytecode caches, file cache
        setup = [workload.setup_rep(runner) for _ in range(SETUP_REPS)]
    except CommandError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    correct = True
    rounds: list[Round] = []
    try:
        workload.rounds(runner, args.seconds, bool(args.trace), rounds)
    except (checks.CheckError, CommandError, ValueError, KeyError) as exc:
        # ValueError and KeyError: output that is not the JSON or fields expected.
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct = False
    if not rounds:
        print("error: no round completed", file=sys.stderr)
        return 1

    rate_names = sorted({name for r in rounds for name in r.rates})
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} trace={args.trace}")
    for name in rate_names:
        parts = [r.rates[name] for r in rounds]
        total = sum(n for n, _ in parts) / sum(t for _, t in parts)
        print(f"#   {name}: {total:.4f} over {len(parts)} rounds; per round:",
              " ".join(f"{n / t:.4f}" for n, t in parts))
    print(f"#   setup_s per rep: {', '.join(f'{s:.4f}' for s in setup)}")

    if args.trace:
        metrics = per_layer_metrics(runner.traced, len(rounds))
        units = per_layer_units()
    else:
        metrics = {
            "items_per_s": sum(r.items for r in rounds) / sum(r.wall_s for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
