#!/usr/bin/env python3
"""Self-test of the output checks: each check must reject a deliberately
corrupted output.

Run from the root of a fragsmith source tree:

    python3 perfbench/selftest.py

It generates small inputs, runs fragsmith on them once, checks that the
genuine outputs pass, then corrupts one output at a time and reports
whether the checks rejected it. Exits 1 if a genuine output fails or a
corrupted one passes.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from collections import Counter
from pathlib import Path

import checks
import gen
import oracles
from run import OUT_DIR, Runner

SMALL_PLANTED = {
    "textual_duplicates": 2,
    "reserialized_duplicates": 3,
    "syntax_broken": 3,
    "valence_broken": 2,
    "overweight": 2,
}
SMALL_KINDS = {"exact": 6, "other": 4, "near": 4, "invalid": 2}


def oracle_examples() -> list[tuple[str, bool]]:
    return [
        ("levenshtein(kitten, sitting) == 3", oracles.levenshtein("kitten", "sitting") == 3),
        ("levenshtein('', abc) == 3", oracles.levenshtein("", "abc") == 3),
        ("bleu(x, x) == 1", oracles.bleu("CCO", "CCO") == 1.0),
        ("bleu('', x) == 0", oracles.bleu("", "CCO") == 0.0),
        # Every smoothed precision is 1; only the brevity penalty exp(1 - 3/2) remains.
        ("bleu(CC, CCO) == exp(-0.5)", abs(oracles.bleu("CC", "CCO") - math.exp(-0.5)) < 1e-12),
        ("cap(10, 40, 1.5) == 10", oracles.fragment_cap(10, 40, 1.5) == 10),
        ("cap(81, 40, 1.5) == 6", oracles.fragment_cap(81, 40, 1.5) == 6),
        ("heavy atoms of [1*]c1ccccc1[N+](=O)[O-]",
         oracles.heavy_atoms("[1*]c1ccccc1[N+](=O)[O-]") == Counter(C=6, N=1, O=2)),
        ("dummies of [1*]CC[12*]", oracles.dummies("[1*]CC[12*]") == 2),
    ]


def rejects(fn) -> tuple[bool, str]:
    try:
        fn()
    except checks.CheckError as exc:
        return True, str(exc)
    return False, "accepted"


def write_dataset(records: list[dict], src: Path, dst: Path) -> None:
    """Write ``records`` as one shard with a manifest whose sha256 matches."""
    shutil.rmtree(dst, ignore_errors=True)
    dst.mkdir(parents=True)
    data = "".join(json.dumps(r, ensure_ascii=False, separators=(", ", ": ")) + "\n" for r in records).encode()
    (dst / "shard-00000.jsonl").write_bytes(data)
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["shards"] = [{"path": "shard-00000.jsonl", "records": len(records), "sha256": oracles.sha256_hex(data)}]
    manifest["total_records"] = len(records)
    (dst / "manifest.json").write_text(json.dumps(manifest))


def build_cases(runner: Runner, work: Path) -> list[tuple[str, object]]:
    inputs = work / "build"
    expected = gen.make_build(0, inputs, base=60, planted=SMALL_PLANTED, reactions=5)
    lib, ds = work / "lib.tsv", work / "ds"
    runner.fragsmith(["preprocess", str(inputs / "corpus.smi"), "--out", str(lib)], "preprocess")
    out = runner.fragsmith(["--seed", "0", "build", "--library", str(lib), "--reactions",
                            str(inputs / "reactions.tsv"), "--out", str(ds)], "build")
    summary = json.loads(out.stdout)
    text = lib.read_text()
    library = checks.check_library(text, expected)
    records = [json.loads(l) for p in sorted(ds.glob("shard-*.jsonl")) for l in p.read_text().splitlines()]
    lines = text.splitlines()
    rows = [i for i, l in enumerate(lines) if not l.startswith("#")]

    def lib_case(edit):
        return lambda: checks.check_library("\n".join(edit(list(lines))) + "\n", expected)

    def stats_edit(field, delta):
        def edit(ls):
            i = next(i for i, l in enumerate(ls) if l.startswith("# stats="))
            stats = json.loads(ls[i][8:])
            stats[field] += delta
            ls[i] = "# stats=" + json.dumps(stats)
            return ls
        return edit

    def swap_rows(ls):
        ls[rows[0]], ls[rows[1]] = ls[rows[1]], ls[rows[0]]
        return ls

    def shift_k(ls):
        i = next(i for i, l in enumerate(ls) if l.startswith("# k="))
        ls[i] = f"# k={float(ls[i][4:]) + 0.01!r}"
        return ls

    def dataset_case(edit, corrupt_sha=False):
        def run():
            dst = work / "ds-corrupt"
            write_dataset(edit(copy.deepcopy(records)), ds, dst)
            if corrupt_sha:
                shard = dst / "shard-00000.jsonl"
                data = bytearray(shard.read_bytes())
                data[10] ^= 1
                shard.write_bytes(bytes(data))
            checks.check_dataset(dst, library, expected, {**summary, "records": len(edit(copy.deepcopy(records)))})
        return run

    def pretrain(recs):
        return next(r for r in recs if r["task"] == "fragmentation")

    def twin_of(recs, rec):
        prefix = rec["id"].rsplit("-", 1)[0]
        return next(r for r in recs if r["id"] == f"{prefix}-bwd")

    def edit_fragments(recs, new_output):
        fwd = pretrain(recs)
        bwd = twin_of(recs, fwd)
        fwd["output"] = bwd["input"] = new_output(fwd["output"])
        return recs

    def drop_dummy(s):
        first = s.index("[")
        return s[:first] + "C" + s[s.index("]", first) + 1:]

    def swap_atom(s):
        return s.replace("C", "N", 1) if "C" in s else s.replace("c", "n", 1)

    def bad_id(recs):
        fwd = pretrain(recs)
        bwd = twin_of(recs, fwd)
        fwd["id"], bwd["id"] = "0" * 16 + "-fwd", "0" * 16 + "-bwd"
        return sorted(recs, key=lambda r: r["id"])

    def unswapped(recs):
        twin_of(recs, pretrain(recs))["input"] = "C"
        return recs

    def meta_count(recs):
        pretrain(recs)["meta"]["n_fragments"] += 1
        return recs

    return [
        ("genuine build outputs pass", lambda: checks.check_dataset(ds, library, expected, summary)),
        ("library: a planted count is off", lib_case(stats_edit("duplicates", 1))),
        ("library: kept + rejections != read", lib_case(stats_edit("read", 1))),
        ("library: rows out of order", lib_case(swap_rows)),
        ("library: # k= is not the mean length", lib_case(shift_k)),
        ("library: a row is missing", lib_case(lambda ls: ls[:-1])),
        ("dataset: shard bytes differ from the manifest", dataset_case(lambda r: r, corrupt_sha=True)),
        ("dataset: a record lacks its twin", dataset_case(lambda r: [x for x in r if x is not pretrain(r)])),
        ("dataset: twin input/output not swapped", dataset_case(unswapped)),
        ("dataset: pretrain id is not sha256 of its input", dataset_case(bad_id)),
        ("dataset: ids not sorted", dataset_case(lambda r: r[::-1])),
        ("dataset: a dummy atom is lost", dataset_case(lambda r: edit_fragments(r, drop_dummy))),
        ("dataset: heavy atoms not conserved", dataset_case(lambda r: edit_fragments(r, swap_atom))),
        ("dataset: meta n_fragments is off", dataset_case(meta_count)),
        ("dataset: one fragment, under the floor of 2",
         dataset_case(lambda r: edit_fragments(r, lambda s: s.split(".")[0]))),
    ]


def eval_cases(runner: Runner, work: Path) -> list[tuple[str, object]]:
    inputs = work / "eval"
    expected = gen.make_eval(0, inputs, kinds=SMALL_KINDS, dot_refs=4)
    preds = (inputs / "preds.txt").read_text().splitlines()
    refs = (inputs / "refs.txt").read_text().splitlines()
    out = runner.fragsmith(["eval", str(inputs / "preds.txt"), str(inputs / "refs.txt")], "eval")
    report = json.loads(out.stdout.splitlines()[-1])
    n = expected["n"]

    def case(field, value):
        def run():
            bad = dict(report, **{field: value})
            hits = checks.check_eval(bad, preds, refs, SMALL_KINDS["exact"], SMALL_KINDS["invalid"])
            checks.require(hits == SMALL_KINDS["exact"], "exact count differs")
        return run

    return [
        ("genuine eval report passes", case("n", report["n"])),
        ("eval: bleu off by 1e-6", case("bleu", report["bleu"] + 1e-6)),
        ("eval: levenshtein off by one edit", case("levenshtein", round(report["levenshtein"] + 1 / n, 6))),
        ("eval: one exact match missing", case("exact", round(report["exact"] - 1 / n, 6))),
        ("eval: validity off by one pair", case("validity", round(report["validity"] - 1 / n, 6))),
        ("eval: fts_skipped off by one", case("fts_skipped", report["fts_skipped"] + 1)),
        ("eval: n off by one", case("n", n - 1)),
        ("eval: fts below the re-serialized share", case("fts_path", SMALL_KINDS["exact"] / (n - 2) - 0.01)),
        ("eval: fts above 1", case("fts_morgan", 1.01)),
    ]


def recombine_cases(runner: Runner, work: Path) -> list[tuple[str, object]]:
    inputs = work / "recombine"
    expected = gen.make_recombine(0, inputs, sets=20)
    rows_path = work / "rows.tsv"
    runner.run([sys.executable, str(Path(__file__).resolve().parent / "recombine_rounds.py"),
                str(inputs / "molecules.smi"), "--seconds", "0",
                "--out", str(rows_path), "--summary", str(work / "summary.json")], "recombine")
    rows = [line.split("\t") for line in rows_path.read_text().splitlines()]
    cut = next(i for i, r in enumerate(rows) if int(r[6]) > 0)

    def case(columns, edit):
        def run():
            bad = copy.deepcopy(rows)
            for column in columns:
                bad[cut][column] = edit(bad[cut][column])
            checks.check_recombine(bad, expected)
        return run

    return [
        ("genuine recombine rows pass", case([], None)),
        ("recombine: rejoined molecule differs", case([2], lambda v: v + "C")),
        ("recombine: parent and rejoined atoms differ from the input",
         case([1, 2], lambda v: v.replace("C", "N", 1))),
        ("recombine: detokenize does not round-trip", case([4], lambda v: v[:-1])),
        ("recombine: fragments != cuts + 1", case([6], lambda v: str(int(v) + 1))),
        ("recombine: a capped fragment keeps a dummy", case([7], lambda v: "[1*]" + v)),
        ("recombine: a capped fragment is invalid", case([8], lambda v: "1")),
        ("recombine: capping added an extra carbon", case([7], lambda v: v + "C")),
        ("recombine: a set is missing", lambda: checks.check_recombine(rows[:-1], expected)),
    ]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "fragsmith" / "cli.py").is_file():
        print("error: run from the root of a fragsmith source tree", file=sys.stderr)
        return 2
    work = root / OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, None)
    ok = True
    try:
        for name, passed in oracle_examples():
            print(f"{'ok ' if passed else 'BAD'} oracle: {name}")
            ok &= passed
        for group in (build_cases, eval_cases, recombine_cases):
            cases = group(runner, work)
            for name, fn in cases:
                rejected, message = rejects(fn)
                genuine = name.startswith("genuine")
                good = rejected != genuine
                ok &= good
                verdict = ("passes" if not rejected else f"REJECTED: {message}") if genuine else (
                    f"rejected: {message}" if rejected else "ACCEPTED")
                print(f"{'ok ' if good else 'BAD'} {name}: {verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
