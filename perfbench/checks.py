"""Output checks for the three workloads.

Each check compares fragsmith's outputs with the counts the generator
planted, with the reference computations in ``oracles.py``, or with
properties the method must have. A failed check raises CheckError.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import oracles

# The CLI prints report fields rounded to 6 decimals.
REPORT_RESOLUTION = 5e-7


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- build -------------------------------------------------------------------


def check_library(text: str, expected: dict) -> dict:
    """The library file: planted categories against its stats header,
    rows sorted and unique, ``# k=`` equal to the mean row length."""
    k = None
    stats = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# k="):
            k = float(line[4:])
        elif line.startswith("# stats="):
            stats = json.loads(line[8:])
        elif line and not line.startswith("#"):
            rows.append(line.split("\t"))
    require(stats is not None and k is not None, "library lacks its # k= or # stats= header")
    planted = expected["planted"]
    wanted = {
        "read": expected["lines"],
        "parse_failures": planted["syntax_broken"],
        "duplicates": planted["textual_duplicates"] + planted["reserialized_duplicates"],
        "validity_rejections": planted["valence_broken"],
        "weight_rejections": planted["overweight"],
        "length_rejections": 0,
        "kept": expected["base"],
    }
    for field, value in wanted.items():
        require(stats.get(field) == value, f"library stats {field}={stats.get(field)}, planted {value}")
    rejected = sum(stats[f] for f in wanted if f not in ("read", "kept"))
    require(stats["kept"] + rejected == stats["read"], "kept + rejections != lines read")
    require(len(rows) == stats["kept"], f"{len(rows)} library rows, stats say {stats['kept']}")
    require(all(len(r) == 3 for r in rows), "library row without 3 columns")
    canon = [r[0] for r in rows]
    require(canon == sorted(set(canon)), "library rows are not sorted and unique")
    mean = sum(len(c) for c in canon) / len(canon)
    require(abs(k - mean) <= 1e-9 * mean, f"# k={k} but mean row length is {mean}")
    return {"k": k, "canonical": set(canon), "stats": stats}


def check_dataset(out_dir: Path, library: dict, expected: dict, summary: dict) -> list[str]:
    """Shards against the manifest, the fwd/bwd twins, record ids and the
    fragment-set properties. Returns the shard sha256 list."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    records = []
    digests = []
    for shard in manifest["shards"]:
        data = (out_dir / shard["path"]).read_bytes()
        digest = oracles.sha256_hex(data)
        require(digest == shard["sha256"], f"{shard['path']}: sha256 differs from the manifest")
        lines = data.decode().splitlines()
        require(len(lines) == shard["records"], f"{shard['path']}: record count differs from the manifest")
        records.extend(json.loads(line) for line in lines)
        digests.append(digest)
    require(manifest["total_records"] == len(records) == summary["records"], "record totals disagree")

    ids = [r["id"] for r in records]
    require(ids == sorted(ids) and len(set(ids)) == len(ids), "record ids are not sorted and unique")
    twins: dict[str, dict[str, dict]] = {}
    for rec in records:
        prefix, _, direction = rec["id"].rpartition("-")
        require(direction in ("fwd", "bwd"), f"record id {rec['id']} has no -fwd/-bwd suffix")
        twins.setdefault(prefix, {})[direction] = rec
    for prefix, pair in twins.items():
        require(set(pair) == {"fwd", "bwd"}, f"record {prefix} lacks its twin")
        fwd, bwd = pair["fwd"], pair["bwd"]
        require(fwd["input"] == bwd["output"] and fwd["output"] == bwd["input"],
                f"record {prefix}: twin input and output are not swapped")
    require(len(records) == 2 * len(twins) == 2 * summary["pairs"], "records != 2 x pairs")

    k = max(1, round(library["k"]))
    alpha = expected["alpha"]
    pretrain = finetune = 0
    for prefix, pair in twins.items():
        fwd = pair["fwd"]
        src, out = fwd["input"], fwd["output"]
        if fwd["task"] == "fragmentation":
            pretrain += 1
            require(prefix == oracles.record_prefix("pretrain", src), f"pretrain id {prefix} != sha256 of its input")
            require(src in library["canonical"], f"pretrain input {src} is not a library row")
            n = out.count(".") + 1
            cap = oracles.fragment_cap(len(src), k, alpha)
            require(2 <= n <= cap, f"{src}: {n} fragments outside [2, cap {cap}]")
            require(fwd["meta"]["n_fragments"] == n, f"{src}: meta n_fragments != fragment count")
            require(oracles.dummies(out) == 2 * (n - 1), f"{src}: dummies != 2 x (fragments - 1)")
            require(oracles.heavy_atoms(src) == oracles.heavy_atoms(out), f"{src}: heavy atoms not conserved")
        else:
            require(fwd["task"] == "retrosynthesis", f"unknown forward task {fwd['task']}")
            finetune += 1
            key = f"{out}>>{src}|{fwd['meta']['reaction_type']}"
            require(prefix == oracles.record_prefix("finetune", key), f"finetune id {prefix} != sha256 of its key")
            require(oracles.heavy_atoms(out) == oracles.heavy_atoms(src) + Counter(C=2),
                    f"{src}: reactants are not the product plus two capping carbons")
    require(finetune == expected["reactions"], f"{finetune} reaction pairs, {expected['reactions']} reactions")
    require(pretrain + summary["skipped_no_cut"] == expected["base"], "pretrain pairs + skipped != library rows")
    require(summary["skipped_unparseable"] == 0 and summary["skipped_filtered"] == 0,
            "build skipped generated reactions")
    return digests


# --- eval --------------------------------------------------------------------


def check_eval(report: dict, preds: list[str], refs: list[str], reserialized: int, invalid: int) -> int:
    """The eval report against the oracles and planted counts:
    ``reserialized`` pairs are the same molecule written two ways,
    ``invalid`` predictions are invalid by construction. Returns the
    number of exact matches the report implies."""
    n = len(refs)
    require(report["n"] == n == len(preds), f"report n={report['n']}, {n} pairs")
    require(report["fts_skipped"] == invalid, f"fts_skipped={report['fts_skipped']}, planted {invalid}")
    require(abs(report["validity"] - (n - invalid) / n) <= REPORT_RESOLUTION, "validity != planted valid share")
    bleu = sum(oracles.bleu(p, r) for p, r in zip(preds, refs)) / n
    require(abs(report["bleu"] - bleu) <= REPORT_RESOLUTION + 1e-9, f"bleu {report['bleu']} != oracle {bleu}")
    lev = sum(oracles.levenshtein(p, r) for p, r in zip(preds, refs))
    require(report["levenshtein"] == round(lev / n, 6), f"levenshtein {report['levenshtein']} != oracle {lev / n}")
    hits = round(report["exact"] * n)
    require(abs(report["exact"] * n - hits) <= REPORT_RESOLUTION * n, "exact is not a whole number of pairs")
    fts_n = n - report["fts_skipped"]
    for scheme in ("fts_path", "fts_keys", "fts_morgan"):
        value = report[scheme]
        require(value is not None, f"{scheme} missing")
        require(reserialized / fts_n - REPORT_RESOLUTION <= value <= 1 + REPORT_RESOLUTION,
                f"{scheme}={value} outside [{reserialized}/{fts_n}, 1]")
    return hits


# --- recombine ---------------------------------------------------------------


def check_recombine(rows: list[list[str]], expected: dict) -> int:
    """Rejoin restores the parent, capping leaves valid dummy-free
    fragments, tokenization round-trips, fragments == cuts + 1. Returns
    the number of sets checked."""
    require(len(rows) == expected["sets"], f"{len(rows)} sets, {expected['sets']} molecules")
    for row in rows:
        require(len(row) == 9, "recombine row without 9 columns")
        text, parent, rejoined, payload, detok, n_frag, n_cuts, capped, invalid = row
        n_frag, n_cuts = int(n_frag), int(n_cuts)
        require(rejoined == parent, f"{text}: rejoined {rejoined} != parent {parent}")
        atoms = oracles.heavy_atoms(text)
        for label, smi in (("parent", parent), ("rejoined", rejoined), ("fragments", payload)):
            require(oracles.heavy_atoms(smi) == atoms, f"{text}: {label} heavy atoms differ from the input")
        require(n_frag == n_cuts + 1 == payload.count(".") + 1, f"{text}: fragments != cuts + 1")
        require(oracles.dummies(payload) == 2 * n_cuts, f"{text}: dummies != 2 x cuts")
        cap = oracles.fragment_cap(len(text), expected["k"], expected["alpha"])
        require(n_frag <= cap, f"{text}: {n_frag} fragments over cap {cap}")
        require(detok == payload, f"{text}: detokenize(tokenize(x)) != x")
        require("*" not in capped and invalid == "0", f"{text}: capped fragments keep dummies or are invalid")
        require(capped.count(".") + 1 == n_frag, f"{text}: capped fragment count differs")
        require(oracles.heavy_atoms(capped) == atoms + Counter(C=2 * n_cuts),
                f"{text}: capping did not replace each dummy by one carbon")
    return len(rows)
