"""The ``recombine`` workload: a program calling the fragsmith library.

Fragment sets, with their cut provenance, are made before the timed
section, with the cap parameters ``k``, ``alpha`` and ``seed`` of the
``expected.json`` that ``gen.py`` writes next to MOLECULES.
Each timed round runs, for every set: ``rejoin``, ``carbon_cap`` on each
fragment, ``tokenize`` of the dot-joined set as ``fragment_set``, then
``detokenize``. Rounds repeat until ``--seconds`` of timed work have run.
The first round's results go to ``--out`` for the output checks, after
the timed section; later rounds must give the same digest. With
``--trace``, only the spans of the timed rounds are kept.

    python3 perfbench/recombine_rounds.py MOLECULES --seconds 10 \
        --out rows.tsv --summary summary.json [--trace PREFIX]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description="recombine workload rounds")
    parser.add_argument("molecules")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--trace", help="write spans to this prefix")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run(args, tracer)
    return 0


def run(args, tracer) -> None:
    from fragsmith import (
        FragmentParams,
        build_vocab,
        canonical_smiles,
        carbon_cap,
        detokenize,
        fragment,
        parse_smiles,
        rejoin,
        tokenize,
        validate,
    )

    with open(args.molecules, encoding="utf-8") as fh:
        texts = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    vocab = build_vocab()
    expected = json.loads(Path(args.molecules).with_name("expected.json").read_text())
    params = FragmentParams(k=expected["k"], alpha=expected["alpha"], seed=expected["seed"])
    sets = [fragment(parse_smiles(t), params) for t in texts]

    if tracer is not None:
        tracer.reset()  # drop the set-up's spans
    round_s: list[float] = []
    digests: list[str] = []
    first = None
    while not round_s or sum(round_s) < args.seconds:
        t0 = time.perf_counter()
        results = []
        for fs in sets:
            merged = rejoin(fs)
            capped = [carbon_cap(f) for f in fs.fragments]
            payload = ".".join(f.source_text for f in fs.fragments)
            detok = detokenize(tokenize(payload, vocab, "fragment_set"), vocab)
            results.append((merged, capped, payload, detok))
        round_s.append(time.perf_counter() - t0)

        digest = hashlib.sha256()
        for merged, capped, payload, detok in results:
            capped_text = ".".join(c.source_text for c in capped)
            digest.update(f"{merged.source_text}\t{capped_text}\t{payload}\t{detok}\n".encode())
        digests.append(digest.hexdigest())
        if first is None:
            first = results
    if tracer is not None:
        tracer.write(args.trace)  # the timed rounds' spans only

    with open(args.out, "w", encoding="utf-8") as fh:
        for text, fs, (merged, capped, payload, detok) in zip(texts, sets, first):
            invalid = sum(not validate(c).valid for c in capped)
            fh.write("\t".join([
                text,
                fs.parent_canonical,
                canonical_smiles(merged),
                payload,
                detok,
                str(len(fs.fragments)),
                str(len(fs.cleaved)),
                ".".join(c.source_text for c in capped),
                str(invalid),
            ]) + "\n")

    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump({"sets": len(sets), "round_s": round_s, "digests": digests}, fh)


if __name__ == "__main__":
    sys.exit(main())
