#!/usr/bin/env python3
"""Print the behaviour fingerprints of a fragsmith source tree as one JSON object.

    python3 scripts/fingerprints.py [--against BENCH_17.json]

Every value is a sha256 hex digest:

* ``fixture_lib.tsv``: ``preprocess data/fixture_corpus.smi``'s library;
* ``fixture_ds``: the shards of ``--seed 0 --shards 2000 build`` on that
  library with ``--reactions data/reactions_sample.tsv``, concatenated in
  name order;
* for each benchmark seed N in 1-3, on the inputs ``perfbench/gen.py
  --seed N`` writes: ``bN_lib.tsv`` and ``bN_ds``, the same two for the
  build corpus and reactions with ``--seed N --shards 500``;
  ``evalN.out`` and ``cageN.out``, ``fragsmith eval`` stdout on the eval
  pairs and on the cage slice; ``recN.tsv``, the rows
  ``perfbench/recombine_rounds.py --seconds 0`` writes, and
  ``recN_round_digest``, the round digest it records (not hashed again).

fragsmith runs from the ``src/`` of the tree that holds this script, and
the benchmark is used only through its command line. Everything is written
to a temporary directory that is removed at exit. With ``--against``,
the digests are compared with the ``fingerprints`` object of that BENCH
file: each key whose digest differs or is not recorded there is named
on standard error, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def differing_keys(current: dict[str, str], recorded: dict[str, str]) -> list[str]:
    """The keys of ``current`` whose digest ``recorded`` lacks or disagrees with."""
    return [key for key, digest in current.items() if recorded.get(key) != digest]


class Tree:
    """Runs a source tree's fragsmith and benchmark scripts in a work directory."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, *args: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            raise SystemExit(f"{' '.join(args)} exited {proc.returncode}: {' | '.join(tail)}")
        return proc.stdout

    def fragsmith(self, *args: str) -> bytes:
        return self.run("-m", "fragsmith.cli", *args)

    def library_and_shards(self, name: str, corpus: Path, reactions: Path, seed: int,
                           shards: int) -> dict[str, str]:
        lib = self.work / f"{name}_lib.tsv"
        ds = self.work / f"{name}_ds"
        self.fragsmith("preprocess", str(corpus), "--out", str(lib))
        self.fragsmith("--seed", str(seed), "--shards", str(shards), "build", "--library", str(lib),
                       "--reactions", str(reactions), "--out", str(ds))
        shard_bytes = b"".join(p.read_bytes() for p in sorted(ds.glob("shard-*.jsonl")))
        return {f"{name}_lib.tsv": sha256(lib.read_bytes()), f"{name}_ds": sha256(shard_bytes)}

    def benchmark_seed(self, seed: int) -> dict[str, str]:
        inputs = self.work / f"inputs{seed}"
        self.run("perfbench/gen.py", "--seed", str(seed), "--out", str(inputs))
        build, ev = inputs / "build", inputs / "eval"
        out = self.library_and_shards(f"b{seed}", build / "corpus.smi", build / "reactions.tsv", seed, 500)
        out[f"eval{seed}.out"] = sha256(self.fragsmith("eval", str(ev / "preds.txt"), str(ev / "refs.txt")))
        out[f"cage{seed}.out"] = sha256(
            self.fragsmith("eval", str(ev / "cage_preds.txt"), str(ev / "cage_refs.txt")))
        rows, summary = self.work / f"rec{seed}.tsv", self.work / f"rec{seed}.json"
        self.run("perfbench/recombine_rounds.py", str(inputs / "recombine" / "molecules.smi"),
                 "--seconds", "0", "--out", str(rows), "--summary", str(summary))
        out[f"rec{seed}.tsv"] = sha256(rows.read_bytes())
        out[f"rec{seed}_round_digest"] = json.loads(summary.read_text())["digests"][0]
        return out


def fingerprints(root: Path) -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="fingerprints-") as work:
        tree = Tree(root, Path(work))
        out = tree.library_and_shards("fixture", root / "data" / "fixture_corpus.smi",
                                      root / "data" / "reactions_sample.tsv", 0, 2000)
        for seed in SEEDS:
            out.update(tree.benchmark_seed(seed))
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a BENCH_<n>.json to compare with")
    args = parser.parse_args(argv)
    current = fingerprints(Path(__file__).resolve().parents[1])
    print(json.dumps(current, indent=1))
    if args.against is None:
        return 0
    recorded = json.loads(args.against.read_text(encoding="utf-8"))["fingerprints"]
    differ = differing_keys(current, recorded)
    for key in differ:
        print(f"{key}: {recorded.get(key, 'not recorded')} in {args.against}, {current[key]} here",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
