"""Independent reference implementations used to cross-check the package.

These deliberately share no code with the implementations under test:
plain backtracking isomorphism, full-matrix edit distance, a separate
BLEU transcription, a straight-line version of the fragment-cap
formula, a BRICS labelling that scans every atom with every rule, the
first dict-based canonical ranking, and an all-lengths longest-match
tokenizer. The BRICS scan reuses the pattern matcher: what it checks is
which atoms and rules get tried, not how one match is made.
"""

from __future__ import annotations

import math
from collections import Counter


def _atom_key(mol, i):
    a = mol.atoms[i]
    return (
        a.element, a.aromatic, a.formal_charge,
        a.isotope or 0, a.link_label or 0, a.h_total,
    )


def graph_isomorphic(m1, m2) -> bool:
    """Attributed-graph isomorphism by exhaustive backtracking."""
    if len(m1.atoms) != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    if sorted(_atom_key(m1, i) for i in range(len(m1.atoms))) != sorted(
        _atom_key(m2, i) for i in range(len(m2.atoms))
    ):
        return False

    adj1 = {}
    for b in m1.bonds:
        a, c = b.endpoints
        adj1[(a, c)] = adj1[(c, a)] = b.order
    adj2 = {}
    for b in m2.bonds:
        a, c = b.endpoints
        adj2[(a, c)] = adj2[(c, a)] = b.order

    n = len(m1.atoms)
    # Order atoms of m1 so each (after the first per component) touches a
    # previously mapped one; cuts the search space drastically.
    order: list[int] = []
    placed: set[int] = set()
    neighbors1 = [set() for _ in range(n)]
    for b in m1.bonds:
        a, c = b.endpoints
        neighbors1[a].add(c)
        neighbors1[c].add(a)
    while len(order) < n:
        frontier = [i for i in range(n) if i not in placed and neighbors1[i] & placed]
        nxt = frontier[0] if frontier else next(i for i in range(n) if i not in placed)
        order.append(nxt)
        placed.add(nxt)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in range(n):
            if j in used or _atom_key(m1, i) != _atom_key(m2, j):
                continue
            ok = True
            for prev_i, prev_j in mapping.items():
                if adj1.get((i, prev_i)) != adj2.get((j, prev_j)):
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if backtrack(k + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return backtrack(0)


def levenshtein_matrix(a: str, b: str) -> int:
    """Textbook full-matrix edit distance."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[-1][-1]


def bleu_reference(pred: str, ref: str) -> float:
    """Character-level BLEU-4, add-one smoothing, brevity penalty."""
    if len(pred) == 0:
        return 0.0
    if pred == ref:
        return 1.0
    precisions = []
    for n in (1, 2, 3, 4):
        pred_grams = Counter(pred[i : i + n] for i in range(len(pred) - n + 1))
        ref_grams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        overlap = pred_grams & ref_grams
        matched = sum(overlap.values())
        total = sum(pred_grams.values())
        precisions.append((matched + 1.0) / (total + 1.0))
    geo_mean = math.prod(precisions) ** 0.25
    if len(pred) >= len(ref):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref) / len(pred))
    return bp * geo_mean


def fragment_cap_reference(length: int, k: int, alpha: float) -> int:
    """Straight-line transcription of the adaptive fragment cap."""
    if length < k:
        return length
    return min(length, math.ceil(math.ceil(length / k) ** alpha))


def brics_bonds_full_scan(mol, rules):
    """Cleavable bonds as (bond index, labels): every atom is labelled
    against every rule, then each single acyclic bond takes the first
    single-bond (label, partner) pair of the table that its endpoints fit."""
    from fragsmith.patterns import match_at

    labels = [
        {r.label for r in rules if match_at(r.pattern, mol, i)}
        for i in range(len(mol.atoms))
    ]
    pairs = sorted(
        (r.label, p)
        for r in rules
        if r.bond_kind == "single"
        for p in r.partners
        if p >= r.label
    )
    out = []
    for bi, bond in enumerate(mol.bonds):
        if bond.order != "single" or bi in mol.ring_bonds:
            continue
        a, b = bond.endpoints
        for la, lb in pairs:
            if la in labels[a] and lb in labels[b]:
                out.append((bi, (la, lb)))
                break
            if lb in labels[a] and la in labels[b]:
                out.append((bi, (lb, la)))
                break
    return out


# Dict-based colour refinement with input-index tie-breaking: the
# canonical ranking as first written, kept to pin the current one to it.
_ORDER_RANK = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}


def _initial_invariants(m, comp):
    from fragsmith.elements import ATOMIC_NUMBERS

    inv = {}
    for i in comp:
        a = m.atoms[i]
        orders = tuple(sorted(_ORDER_RANK[m.bonds[bi].order] for _, bi in m.neighbors[i]))
        inv[i] = (
            ATOMIC_NUMBERS.get(a.element, 99),
            a.aromatic,
            a.formal_charge,
            a.isotope or 0,
            a.link_label or 0,
            a.h_total,
            len(m.neighbors[i]),
            orders,
            i in m.ring_atoms,
        )
    return inv


def _dense(keys):
    ordered = sorted(set(keys.values()))
    lookup = {k: r for r, k in enumerate(ordered)}
    return {i: lookup[k] for i, k in keys.items()}


def _refine(m, ranks):
    comp = list(ranks)
    while True:
        keys = {}
        for i in comp:
            nbr = tuple(sorted(
                (_ORDER_RANK[m.bonds[bi].order], ranks[j])
                for j, bi in m.neighbors[i]
                if j in ranks
            ))
            keys[i] = (ranks[i], nbr)
        new = _dense(keys)
        if len(set(new.values())) == len(set(ranks.values())):
            return new
        ranks = new


def component_ranks_reference(m, comp, *, break_ties):
    ranks = _refine(m, _dense(_initial_invariants(m, comp)))
    if not break_ties:
        return ranks
    while len(set(ranks.values())) < len(comp):
        by_rank = {}
        for i, r in ranks.items():
            by_rank.setdefault(r, []).append(i)
        tied = min((r for r, members in by_rank.items() if len(members) > 1))
        promote = min(by_rank[tied])
        keys = {i: (ranks[i], 0 if i == promote else 1) for i in ranks}
        ranks = _refine(m, _dense(keys))
    return ranks


def tokenize_longest_match(text, vocab, begin, end):
    """Token ids of ``text`` framed per dot component: at each position
    every length down to 1 is tried, the longest admissible token wins.
    A token is admissible when it is not a framing special and either
    starts and ends on atom-unit boundaries or is one character inside a
    bracket atom. A component whose group segmentation is longer than its
    base-only segmentation takes the base one."""
    import re

    index = {t: k for k, t in enumerate(vocab.tokens)}

    def encode(comp, allow_groups):
        spans = [(u.start(), u.end()) for u in re.finditer(r"\[[^\[\]]*\]|%\d\d|Cl|Br|.", comp, re.S)]
        bounds = {s for s, _ in spans} | {e for _, e in spans}
        in_bracket = set()
        for s, e in spans:
            if comp[s] == "[":
                in_bracket.update(range(s, e))
        ids, used_group, i = [], False, 0
        while i < len(comp):
            for L in range(len(comp) - i, 0, -1):
                idx = index.get(comp[i : i + L])
                if idx is None:
                    continue
                cls = vocab.classes[idx]
                if cls == "special" or (cls == "group" and not allow_groups):
                    continue
                if (i in bounds and i + L in bounds) or (L == 1 and i in in_bracket):
                    break
            else:
                raise ValueError(f"no token at {i} in {comp!r}")
            ids.append(idx)
            used_group |= cls == "group"
            i += L
        return ids, used_group

    out = []
    for comp in text.split("."):
        ids, used_group = encode(comp, True)
        if used_group:
            base, _ = encode(comp, False)
            if len(base) < len(ids):
                ids = base
        out += [begin, *ids, end]
    return out
