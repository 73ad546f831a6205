"""Seeded input generator for the three benchmark workloads.

Every input is built from the drug-like grammar of
``scripts/make_fixture_corpus.py`` (ring cores, linkers, tails, simple
substituents), but under the benchmark's own seed stream and with the
benchmark's own SMILES reader and writer (``chem.py``). Each planted
category is counted here, from construction alone, so that the output
checks never rest on fragsmith's own answers.

Regenerate every workload's inputs for one seed with:

    python3 perfbench/gen.py --seed 1 --out .perfbench_out/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import chem

CORES = [
    "c1ccc({0})cc1",
    "c1ccc({0})c({1})c1",
    "c1cc({0})cc({1})c1",
    "c1ccnc({0})c1",
    "c1ccc({0})nc1",
    "c1cnc({0})nc1",
    "c1csc({0})c1",
    "c1coc({0})c1",
    "c1ccc2cc({0})ccc2c1",
    "c1cc2ccccc2n1{0}",
    "C1CCN({0})CC1",
    "C1CN({0})CCN1{1}",
    "C1CCC({0})CC1",
    "O1CCN({0})CC1",
    "c1nc({0})c2ccccc2n1{1}",
]

LINKERS = [
    "C(=O)N{T}", "NC(=O){T}", "C(=O)O{T}", "OC(=O){T}", "O{T}", "OC{T}",
    "CO{T}", "N{T}", "NC{T}", "CN{T}", "C{T}", "CC{T}", "S(=O)(=O)N{T}",
    "NS(=O)(=O){T}", "C(=O){T}", "S{T}", "C=C{T}", "OCC{T}",
]

TAILS = [
    "c3ccccc3", "c3ccncc3", "c3cccnc3", "c3ccc(F)cc3", "c3ccc(Cl)cc3",
    "c3ccc(OC)cc3", "c3ccc(C)cc3", "c3ccsc3", "c3ccoc3", "C3CCCCC3",
    "C3CCOCC3", "C3CCNC3", "N3CCOCC3", "N3CCCC3", "N3CCCCC3", "C3CC3",
]

SIMPLE_SUBS = [
    "F", "Cl", "Br", "I", "C", "CC", "C(C)C", "C(C)(C)C", "OC", "O", "N",
    "C#N", "C(F)(F)F", "OC(F)(F)F", "[N+](=O)[O-]", "S(C)(=O)=O",
    "NC(C)=O", "C(=O)OC", "C(=O)N", "OCC", "N(C)C", "CNC", "C(=O)O",
]

# Workload sizes. The build corpus is larger than the 1200-line fixture.
BUILD_BASE = 1200
BUILD_PLANTED = {
    "textual_duplicates": 20,
    "reserialized_duplicates": 40,
    "syntax_broken": 15,
    "valence_broken": 15,
    "overweight": 10,
}
BUILD_REACTIONS = 100
# 400 pairs: the per-pair cost varies with molecule size, and fewer pairs
# let the seed move the work per round by several percent.
EVAL_PAIRS = {"exact": 160, "other": 100, "near": 100, "invalid": 40}
EVAL_DOT_REFS = 120
CAGE_SIZES = {8: 5, 10: 8, 12: 11}
RECOMBINE_SETS = 1000
# Average SMILES length for the recombine cap: fixed, the grammar's mean.
# Taking it from each seed's molecules shifts every cap at once when the
# rounded mean moves by one, and with it the work per set.
RECOMBINE_K = 25
ALPHA = 1.5

# One-item inputs for timing set-up; fixed, not seeded.
SETUP_MOLECULE = "O=C(NCc1ccccc1)c1ccncc1"
SETUP_REACTION = "CC(=O)c1ccncc1.CNCc1ccccc1\tO=C(NCc1ccccc1)c1ccncc1\tamide coupling"

PENTAVALENT = "C(C)(C)(C)(C)C"  # its centre carbon has five bonds


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _molecule_text(rng: random.Random) -> str:
    core = rng.choice(CORES)
    subs = []
    for _ in range(core.count("{")):
        if rng.random() < 0.5:
            subs.append(rng.choice(SIMPLE_SUBS))
        else:
            subs.append(rng.choice(LINKERS).replace("{T}", rng.choice(TAILS)))
    return core.format(*subs)


def weight(g: chem.Graph) -> float:
    return sum(
        chem.WEIGHTS[chem.element(a)] + g.hydrogens(i) * chem.WEIGHTS["H"]
        for i, a in enumerate(g.atoms)
    )


def drug_like(rng: random.Random, n: int, seen: chem.IdentitySet) -> list[tuple[str, chem.Graph]]:
    """``n`` grammar molecules of 150-650 g/mol, pairwise non-isomorphic
    and new to ``seen``."""
    out = []
    while len(out) < n:
        text = _molecule_text(rng)
        g = chem.parse(text)
        if 150.0 <= weight(g) <= 650.0 and seen.add(g):
            out.append((text, g))
    return out


def reserialize(g: chem.Graph, avoid: set[str], rng: random.Random) -> str | None:
    """A random serialization of ``g`` whose text is not in ``avoid``."""
    for _ in range(20):
        text = chem.write(g, rng)
        if text not in avoid:
            return text
    return None


def _subgraph(g: chem.Graph, atoms: list[int], cap_at: int) -> chem.Graph:
    """The induced subgraph on ``atoms`` with a carbon bonded to ``cap_at``."""
    sub = chem.Graph()
    index = {a: sub.add_atom(g.atoms[a]) for a in atoms}
    for a in atoms:
        for b, order in g.adj[a].items():
            if b in index and a < b:
                sub.add_bond(index[a], index[b], order)
    sub.add_bond(index[cap_at], sub.add_atom("C"), "-")
    return sub


_REACTION_TYPES = {
    ("C", "N"): "amination",
    ("C", "O"): "ether formation",
    ("C", "S"): "thioether formation",
    ("C", "C"): "alkylation",
    ("N", "S"): "sulfonamidation",
    ("N", "N"): "hydrazine coupling",
    ("N", "O"): "N-O coupling",
}


def split_capped(g: chem.Graph, rng: random.Random) -> tuple[list[chem.Graph], str] | None:
    """Cut one acyclic single bond whose sides both hold two or more heavy
    atoms, and carbon-cap both pieces (the way the bundled reaction sample
    derives reactants). Returns the pieces and a reaction type."""
    candidates = []
    for a, b, order in g.bonds():
        if order != "-":
            continue
        del g.adj[a][b], g.adj[b][a]
        comps = g.components()
        g.adj[a][b] = g.adj[b][a] = order
        if len(comps) == 2 and min(len(c) for c in comps) >= 2:
            candidates.append((a, b, comps))
    if not candidates:
        return None
    a, b, comps = rng.choice(candidates)
    pieces = [_subgraph(g, comp, a if a in comp else b) for comp in comps]
    pair = tuple(sorted((chem.element(g.atoms[a]), chem.element(g.atoms[b]))))
    return pieces, _REACTION_TYPES.get(pair, "fragment coupling")


def _write_lines(path: Path, lines: list[str], header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for line in lines:
            fh.write(line + "\n")


# --- build -------------------------------------------------------------------


def make_build(seed: int, out: Path, *, base: int = BUILD_BASE,
               planted: dict[str, int] | None = None,
               reactions: int = BUILD_REACTIONS) -> dict:
    """Corpus with planted filter outcomes, plus reactions derived from it."""
    planted = dict(BUILD_PLANTED if planted is None else planted)
    rng = _rng("build", seed)
    seen = chem.IdentitySet()
    mols = drug_like(rng, base, seen)
    texts = {t for t, _ in mols}
    lines = [t for t, _ in mols]

    for t, _ in rng.sample(mols, planted["textual_duplicates"]):
        lines.append(t)
    made = 0
    for t, g in rng.sample(mols, len(mols)):
        if made == planted["reserialized_duplicates"]:
            break
        alt = reserialize(g, texts, rng)
        if alt is not None:
            texts.add(alt)
            lines.append(alt)
            made += 1
    for i, (t, _) in enumerate(rng.sample(mols, planted["syntax_broken"])):
        # An unclosed branch, an unclosed ring label, a stray ')'.
        lines.append((t + "(", t + "9", t + ")")[i % 3])
    made = 0
    for t, _ in rng.sample(mols, len(mols)):
        if made == planted["valence_broken"]:
            break
        if seen.add(chem.parse(t + PENTAVALENT)):
            lines.append(t + PENTAVALENT)
            made += 1
    for i in range(planted["overweight"]):
        # Iodoalkanes C(i+3) I(2i+8): over 1000 g/mol from heavy atoms alone.
        lines.append("IC(I)(I)" + "C(I)(I)" * (i + 2) + "I")
    if len(lines) != base + sum(planted.values()):
        raise RuntimeError("could not plant every category")
    rng.shuffle(lines)

    rows = []
    for text, g in rng.sample(mols, len(mols)):
        if len(rows) == reactions:
            break
        split = split_capped(g, rng)
        if split is None:
            continue
        pieces, rtype = split
        reactants = sorted(chem.write(p, rng) for p in pieces)
        rows.append(f"{'.'.join(reactants)}\t{text}\t{rtype}")
    if len(rows) != reactions:
        raise RuntimeError("too few splittable molecules for the reactions")

    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "corpus.smi", lines, f"perfbench build corpus, seed {seed}")
    _write_lines(out / "reactions.tsv", rows, "reactants_dot_joined\tproduct\treaction_type")
    _write_lines(out / "one.smi", [SETUP_MOLECULE])
    _write_lines(out / "one_reactions.tsv", [SETUP_REACTION])
    expected = {
        "lines": len(lines),
        "base": base,
        "planted": planted,
        "reactions": reactions,
        "alpha": ALPHA,
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return expected


# --- eval --------------------------------------------------------------------


def near_miss(ref: str, rng: random.Random) -> str:
    """Insert a methyl branch on an atom that carries a hydrogen: still
    valid, one more carbon, so never the same molecule as ``ref``."""
    g = chem.parse(ref)
    sites = [
        i for i, a in enumerate(g.atoms)
        if a in ("C", "c") and g.hydrogens(i) >= 1
    ]
    end = g.ends[rng.choice(sites)]
    return ref[:end] + "(C)" + ref[end:]


def random_cubic_graph(n: int, rng: random.Random) -> chem.Graph:
    """A connected 3-regular graph on ``n`` aliphatic CH atoms."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) < 3 * n // 2 or any(a == b for a, b in edges):
            continue
        g = chem.Graph()
        for _ in range(n):
            g.add_atom("C")
        for a, b in edges:
            g.add_bond(a, b, "-")
        if len(g.components()) == 1:
            return g


def cage_pairs() -> list[tuple[str, str]]:
    """Fixed (not seeded) pairs of two serializations of one cage graph."""
    rng = random.Random("perfbench:cage")
    seen = chem.IdentitySet()
    pairs = []
    for n, count in CAGE_SIZES.items():
        made = 0
        while made < count:
            g = random_cubic_graph(n, rng)
            if not seen.add(g):
                continue
            ref = chem.write(g, rng)
            pred = reserialize(g, {ref}, rng)
            pairs.append((pred, ref))
            made += 1
    return pairs


def make_eval(seed: int, out: Path, *, kinds: dict[str, int] | None = None,
              dot_refs: int = EVAL_DOT_REFS) -> dict:
    """Predictions and references with exactly counted kinds."""
    kinds = dict(EVAL_PAIRS if kinds is None else kinds)
    n = sum(kinds.values())
    rng = _rng("eval", seed)
    seen = chem.IdentitySet()
    mols = drug_like(rng, n + kinds["other"], seen)
    refs_pool, others = mols[:n], mols[n:]

    is_dot = [True] * dot_refs + [False] * (n - dot_refs)
    rng.shuffle(is_dot)
    kind_of = [k for k, c in kinds.items() for _ in range(c)]
    rng.shuffle(kind_of)

    preds, refs = [], []
    for i, ((text, g), dot, kind) in enumerate(zip(refs_pool, is_dot, kind_of)):
        ref_graph = g
        if dot:
            split = split_capped(g, rng)
            if split is not None:
                pieces = split[0]
                text = ".".join(chem.write(p, rng) for p in pieces)
                ref_graph = chem.parse(text)
        if kind == "exact":
            pred = reserialize(ref_graph, {text}, rng) or text
        elif kind == "other":
            pred = others[i % len(others)][0]
        elif kind == "near":
            pred = near_miss(text, rng)
        else:
            pred = text + ("(" if i % 2 else PENTAVALENT)
        preds.append(pred)
        refs.append(text)

    cages = cage_pairs()
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "preds.txt", preds)
    _write_lines(out / "refs.txt", refs)
    _write_lines(out / "cage_preds.txt", [p for p, _ in cages])
    _write_lines(out / "cage_refs.txt", [r for _, r in cages])
    _write_lines(out / "one_preds.txt", [SETUP_MOLECULE])
    _write_lines(out / "one_refs.txt", ["c1ccncc1C(=O)NCc1ccccc1"])
    expected = {
        "n": n,
        "kinds": kinds,
        "dot_refs": sum(1 for r in refs if "." in r),
        "cage_pairs": len(cages),
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return expected


# --- recombine ---------------------------------------------------------------


def make_recombine(seed: int, out: Path, *, sets: int = RECOMBINE_SETS) -> dict:
    """Molecules to fragment before the timed section."""
    rng = _rng("recombine", seed)
    mols = drug_like(rng, sets, chem.IdentitySet())
    texts = [t for t, _ in mols]
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "molecules.smi", texts)
    _write_lines(out / "one.smi", [SETUP_MOLECULE])
    expected = {"sets": sets, "k": RECOMBINE_K, "alpha": ALPHA, "seed": seed}
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return expected


MAKERS = {"build": make_build, "eval": make_eval, "recombine": make_recombine}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args()
    for name, make in MAKERS.items():
        expected = make(args.seed, Path(args.out) / name)
        print(name, json.dumps(expected))


if __name__ == "__main__":
    main()
