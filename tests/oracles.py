"""Independent reference implementations used to cross-check the package.

These deliberately share no code with the implementations under test:
plain backtracking isomorphism, full-matrix edit distance, a separate
BLEU transcription, a straight-line version of the fragment-cap
formula, a BRICS labelling that scans every atom with every rule, the
first dict-based canonical ranking, the two-pass canonical writer, the
per-bond small-ring search, and an all-lengths longest-match tokenizer.
The BRICS scan reuses the pattern matcher: what it checks is which atoms
and rules get tried, not how one match is made. The writer reuses the
parser's implicit-hydrogen rule to decide when an atom needs brackets.
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


# The small-ring perception as first written: one breadth-first search
# per ring bond over every neighbour, kept to pin the current one to it.
def small_rings_reference(m):
    rings = []
    seen = set()
    for bi in sorted(m.ring_bonds):
        a, b = m.bonds[bi].endpoints
        path = _shortest_path(m, a, b, skip_bond=bi, limit=7)
        if path is None:
            continue
        key = frozenset(path)
        if key not in seen:
            seen.add(key)
            rings.append(tuple(path))
    return tuple(rings)


def _shortest_path(m, src, dst, skip_bond, limit):
    from collections import deque

    prev = {src: -1}
    dq = deque([(src, 0)])
    while dq:
        node, dist = dq.popleft()
        if node == dst:
            path = [node]
            while prev[node] != -1:
                node = prev[node]
                path.append(node)
            return path[::-1]
        if dist >= limit:
            continue
        for nbr, bi in m.neighbors[node]:
            if bi == skip_bond or nbr in prev:
                continue
            prev[nbr] = node
            dq.append((nbr, dist + 1))
    return None


# The canonical writer as first written: a DFS tree, a scan of every bond
# for ring closures, then a second walk that emits the text. It ranks
# with component_ranks_reference, the ranking the package's is pinned to.
def _atom_token(m, i):
    from fragsmith.elements import AROMATIC_ORGANIC, DUMMY, ORGANIC_SUBSET
    from fragsmith.molgraph import _default_hydrogens

    a = m.atoms[i]
    if a.is_dummy:
        return f"[{a.link_label}*]" if a.link_label else DUMMY
    sym = a.element.lower() if a.aromatic else a.element
    orders = [m.bonds[bi].order for _, bi in m.neighbors[i]]
    plain_ok = (
        a.isotope is None
        and a.formal_charge == 0
        and a.element in ORGANIC_SUBSET
        and (not a.aromatic or sym in AROMATIC_ORGANIC)
        and a.h_total == _default_hydrogens(a.element, a.aromatic, orders)
    )
    if plain_ok:
        return sym
    h = a.h_total
    hstr = "" if h == 0 else ("H" if h == 1 else f"H{h}")
    c = a.formal_charge
    if c == 0:
        cstr = ""
    elif c == 1:
        cstr = "+"
    elif c == -1:
        cstr = "-"
    else:
        cstr = f"{'+' if c > 0 else '-'}{abs(c)}"
    iso = "" if a.isotope is None else str(a.isotope)
    return f"[{iso}{sym}{hstr}{cstr}]"


_BOND_SYMBOLS = {"single": "-", "double": "=", "triple": "#", "aromatic": ":"}


def _bond_token(m, bi):
    bond = m.bonds[bi]
    a, b = bond.endpoints
    if bond.order == "single":
        both_aromatic = m.atoms[a].aromatic and m.atoms[b].aromatic
        if both_aromatic and bi in m.ring_bonds:
            return "-"
        return ""
    if bond.order == "aromatic":
        return ""
    return _BOND_SYMBOLS[bond.order]


def _write_component(m, comp, order_key):
    root = min(comp, key=lambda i: (m.degree(i), order_key(i)))
    successors = {}
    tree_bonds = set()
    visited = {root}
    stack = [root]
    parent_bond = {}
    while stack:
        node = stack.pop()
        kids = []
        for j, bi in sorted(
            m.neighbors[node], key=lambda nb: order_key(nb[0])
        ):
            if j not in visited:
                visited.add(j)
                kids.append(j)
                parent_bond[j] = bi
                tree_bonds.add(bi)
        for j in reversed(kids):
            stack.append(j)
        if kids:
            successors[node] = kids

    comp_set = set(comp)
    ring_bond_ids = [
        bi
        for bi in range(len(m.bonds))
        if bi not in tree_bonds
        and m.bonds[bi].endpoints[0] in comp_set
        and m.bonds[bi].endpoints[1] in comp_set
    ]
    atom_ring_bonds = {}
    for bi in ring_bond_ids:
        a, b = m.bonds[bi].endpoints
        atom_ring_bonds.setdefault(a, []).append(bi)
        atom_ring_bonds.setdefault(b, []).append(bi)
    for i in atom_ring_bonds:
        # i is one endpoint of each of its bonds; the sort key is the other.
        atom_ring_bonds[i].sort(key=lambda bi: order_key(sum(m.bonds[bi].endpoints) - i))

    out = []
    open_digits = {}
    used_digits = set()
    branch_open = 0
    to_visit = [root]
    branch_set = set()
    pred = {}
    for node, kids in successors.items():
        for j in kids:
            pred[j] = node

    while to_visit:
        cur = to_visit.pop()
        if cur in branch_set:
            out.append("(")
            branch_open += 1
            branch_set.discard(cur)
        if cur in pred:
            out.append(_bond_token(m, parent_bond[cur]))
        out.append(_atom_token(m, cur))
        for bi in atom_ring_bonds.get(cur, ()):
            if bi in open_digits:
                digit = open_digits.pop(bi)
                used_digits.discard(digit)
                out.append(str(digit) if digit < 10 else f"%{digit:02d}")
            else:
                digit = 1
                while digit in used_digits:
                    digit += 1
                if digit > 99:
                    raise ValueError("too many simultaneous ring closures")
                used_digits.add(digit)
                open_digits[bi] = digit
                out.append(_bond_token(m, bi))
                out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        kids = successors.get(cur)
        if kids:
            branch_set.update(kids[:-1])
            for j in reversed(kids):
                to_visit.append(j)
        elif branch_open:
            out.append(")")
            branch_open -= 1
    out.append(")" * branch_open)
    return "".join(out)


def write_smiles_reference(m, rng=None):
    """Canonical SMILES of ``m`` when ``rng`` is None, otherwise the
    randomized serialization that draws from ``rng`` as the package does."""
    parts = []
    for comp in m.components:
        if rng is None:
            ranks = component_ranks_reference(m, comp, break_ties=True)
            order_key = ranks.__getitem__
        else:
            shuffled = list(comp)
            rng.shuffle(shuffled)
            perm = {atom: pos for pos, atom in enumerate(shuffled)}
            order_key = perm.__getitem__
        parts.append(_write_component(m, comp, order_key))
    if rng is None:
        parts.sort()
    else:
        rng.shuffle(parts)
    return ".".join(parts)
