"""Independent reference implementations used to cross-check the package.

These deliberately share no code with the implementations under test:
plain backtracking isomorphism, full-matrix edit distance, a separate
BLEU transcription, a straight-line version of the fragment-cap
formula, a BRICS labelling that scans every atom with every rule, the
first dict-based canonical ranking, the two-pass canonical writer, the
per-bond small-ring search, an all-lengths longest-match tokenizer, the
stack-based linear-path fingerprint walk, the closure-based anchored
pattern matcher, a bond-expression evaluator that splits the text by
the operator table, the string-keyed implicit-hydrogen and sigma-valence
rules, the character-scanning SMILES lexer, and the molecule assembly
that perceived aromatic rings on every parse. The BRICS scan reuses
the pattern matcher: what it checks is which atoms and rules get tried,
not how one match is made. The writer reuses the parser's
implicit-hydrogen rule to decide when an atom needs brackets. The path
walk reuses the package's atom hash inputs, and the matcher its compiled
atom and bond tests (``$()`` tests call the package matcher): each pins
the walk, not the inputs. The lexer hands its atoms and bonds to the
package's ``_assemble``: it pins the reading of the text, not the graph
built from it. The assembly reuses the package's implicit-hydrogen rule
and the ``ring_bonds`` and ``small_rings`` of its ``Molecule``: it pins
when perception runs and what it does, not the ring search. The Kekulé
writer finds its own double-bond matching and hands the de-aromatized
graph to the package writer: it supplies the input perception exists
for, which no aromatic serialization reaches.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

from fragsmith.elements import AROMATIC_ELEMENTS, ATOMIC_WEIGHTS, DUMMY
from fragsmith.molgraph import (
    AROMATIC,
    BOND_ORDERS,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    SmilesError,
    _assemble,
    _default_hydrogens,
    _WorkAtom,
    bit_indices,
)


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
        a, c = b.a, b.b
        adj1[(a, c)] = adj1[(c, a)] = b.order
    adj2 = {}
    for b in m2.bonds:
        a, c = b.a, b.b
        adj2[(a, c)] = adj2[(c, a)] = b.order

    n = len(m1.atoms)
    # Order atoms of m1 so each (after the first per component) touches a
    # previously mapped one; cuts the search space drastically.
    order: list[int] = []
    placed: set[int] = set()
    neighbors1 = [set() for _ in range(n)]
    for b in m1.bonds:
        a, c = b.a, b.b
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
        if r.bond_kind == SINGLE
        for p in r.partners
        if p >= r.label
    )
    out = []
    for bi, bond in enumerate(mol.bonds):
        if bond.order != SINGLE or mol.ring_bonds >> bi & 1:
            continue
        a, b = bond.a, bond.b
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
_ORDER_RANK = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


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
            m.ring_atoms >> i & 1 == 1,
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
    for bi in bit_indices(m.ring_bonds):
        a, b = m.bonds[bi].a, m.bonds[bi].b
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


_BOND_SYMBOLS = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}


def _bond_token(m, bi):
    bond = m.bonds[bi]
    a, b = bond.a, bond.b
    if bond.order == SINGLE:
        both_aromatic = m.atoms[a].aromatic and m.atoms[b].aromatic
        if both_aromatic and m.ring_bonds >> bi & 1:
            return "-"
        return ""
    if bond.order == AROMATIC:
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
        and m.bonds[bi].a in comp_set
        and m.bonds[bi].b in comp_set
    ]
    atom_ring_bonds = {}
    for bi in ring_bond_ids:
        a, b = m.bonds[bi].a, m.bonds[bi].b
        atom_ring_bonds.setdefault(a, []).append(bi)
        atom_ring_bonds.setdefault(b, []).append(bi)
    for i in atom_ring_bonds:
        # i is one endpoint of each of its bonds; the sort key is the other.
        atom_ring_bonds[i].sort(key=lambda bi: order_key(m.bonds[bi].a + m.bonds[bi].b - i))

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


# The linear-path fingerprint walk as first written: an explicit DFS
# stack of 6-tuple frames with neighbour iterators, kept to pin the
# current one to it. Its atom input is the package's own
# ``metrics._atom_hashes(m, 3)`` (atomic number, aromatic, formal charge
# folded by ``metrics._mix``): the walk is pinned, the atom hash is not.
_PATH_BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


def path_hashes_reference(m, max_bonds=7):
    from fragsmith.metrics import _MASK64, _PATH_PRIME, _atom_hashes

    inv = _atom_hashes(m, 3)
    bond_code = [
        _PATH_BOND_CODE[b.order] * 0x9E3779B97F4A7C15 & _MASK64 for b in m.bonds
    ]
    out = set()
    prime = _PATH_PRIME

    for start in range(len(m.atoms)):
        on_path = [False] * len(m.atoms)
        on_path[start] = True
        root = inv[start]
        # frame: (tip, fwd_hash, rev_hash, prime**len, depth, neighbor iter)
        stack = [(start, root, root, prime, 1, iter(m.neighbors[start]))]
        while stack:
            tip, fwd, rev, pk, depth, it = stack[-1]
            advanced = False
            for j, bi in it:
                if on_path[j]:
                    continue
                code = bond_code[bi]
                f2 = ((fwd * prime + code) * prime + inv[j]) & _MASK64
                r2 = (inv[j] * pk * prime + code * pk + rev) & _MASK64
                out.add(min(f2, r2))
                if depth < max_bonds:
                    on_path[j] = True
                    pk2 = (pk * prime * prime) & _MASK64
                    stack.append((j, f2, r2, pk2, depth + 1, iter(m.neighbors[j])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if tip != start:
                    on_path[tip] = False
    return out


# The anchored pattern matcher as first written: a used-atom set, a
# bond lookup dict and two closures per call over the compiled nodes.
def match_at_reference(pattern, m, root):
    nodes = pattern.nodes
    if not nodes[0].test(m, root):
        return False
    k = len(nodes)
    if k == 1:
        return True
    mapping = [-1] * k
    mapping[0] = root
    used = {root}

    bond_between = {}

    def bond_idx(a, b):
        key = (a, b) if a < b else (b, a)
        if key in bond_between:
            return bond_between[key]
        for nbr, bi in m.neighbors[a]:
            if nbr == b:
                bond_between[key] = bi
                return bi
        return None

    def rec(step):
        if step == k:
            return True
        node = nodes[step]
        assert node.anchor is not None
        parent, btest = node.anchor
        for nbr, bi in m.neighbors[mapping[parent]]:
            if nbr in used or not btest(m, bi):
                continue
            if not node.test(m, nbr):
                continue
            ok = True
            for other, extra_test in node.extra:
                xbi = bond_idx(nbr, mapping[other])
                if xbi is None or not extra_test(m, xbi):
                    ok = False
                    break
            if not ok:
                continue
            mapping[step] = nbr
            used.add(nbr)
            if rec(step + 1):
                return True
            used.discard(nbr)
            mapping[step] = -1
        return False

    return rec(1)


# The valence rules as first written, over bond order names: a bond's
# valence, rounded up over an atom, and its sigma slots.
_ORDER_NAME = {SINGLE: "single", DOUBLE: "double", TRIPLE: "triple", AROMATIC: "aromatic"}
_ORDER_VALUE = {"single": 1, "double": 2, "triple": 3, "aromatic": 1.5}
_SIGMA_VALUE = {"single": 1, "double": 2, "triple": 3, "aromatic": 1}


_BOND_ORDER_OF = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


def bond_expr_reference(expr: str, m, bi: int) -> bool:
    """Evaluate a non-empty, well-formed bond expression on bond ``bi``
    by the SMARTS operator table read from the loosest operator down:
    split on ';' (and), then ',' (or), then '&' (and); what is left is a
    run of juxtaposed primitives (and), each negated by the '!'s before
    it."""

    def primitive(ch: str) -> bool:
        if ch == "~":
            return True
        if ch == "@":
            return m.ring_bonds >> bi & 1 == 1
        return m.bonds[bi].order == _BOND_ORDER_OF[ch]

    def run(text: str) -> bool:
        value, negated = True, False
        for ch in text:
            if ch == "!":
                negated = not negated
            else:
                value = value and primitive(ch) != negated
                negated = False
        return value

    return all(
        any(all(run(part) for part in alt.split("&")) for alt in group.split(","))
        for group in expr.split(";")
    )


def default_hydrogens_reference(element, aromatic, orders):
    from fragsmith.elements import allowed_valences

    valences = allowed_valences(element, 0)
    if not valences:
        return 0
    names = [_ORDER_NAME[o] for o in orders]
    if aromatic:
        sigma = sum(_SIGMA_VALUE[o] for o in names)
        return max(0, valences[0] - (sigma + 1))
    total = sum(_ORDER_VALUE[o] for o in names)
    total = int(total) if total == int(total) else int(total) + 1
    for v in valences:
        if v >= total:
            return v - total
    return 0


def sigma_valence_reference(m, i):
    return sum(_SIGMA_VALUE[_ORDER_NAME[m.bonds[bi].order]] for _, bi in m.neighbors[i])


# The character-scanning SMILES parser as it stood before the lexer was
# compiled to regular expressions, verbatim but for its name and for
# refusing the same forms the package parser refuses: chirality other
# than ``@`` or ``@@``, a ``/`` or ``\`` mark placed where no bond
# symbol may stand, a bond symbol before ``)``, and an empty branch or
# component. It hands its atoms and bonds to the package's ``_assemble``.
_TWO_LETTER = ("Cl", "Br")


def _parse_bracket(body: str, offset: int) -> _WorkAtom:
    """Parse the inside of a bracket atom: isotope symbol chirality H charge;
    the chirality is read and dropped."""
    i = 0
    n = len(body)
    isotope = None
    if i < n and body[i].isdigit():
        j = i
        while j < n and body[j].isdigit():
            j += 1
        isotope = int(body[i:j])
        i = j
    if i < n and body[i] == DUMMY:
        sym, aromatic = DUMMY, False
        i += 1
    else:
        if i + 1 < n and body[i : i + 2] in ATOMIC_WEIGHTS and body[i].isupper():
            sym = body[i : i + 2]
            i += 2
        elif i < n and body[i].isupper():
            sym = body[i]
            i += 1
        elif i < n and body[i].islower():
            sym = body[i]
            i += 1
        else:
            raise SmilesError(f"bad bracket atom [{body}]", offset)
        aromatic = sym[0].islower()
        if aromatic:
            cap = sym.capitalize()
            if cap not in AROMATIC_ELEMENTS:
                raise SmilesError(f"element {sym!r} cannot be aromatic", offset)
            sym = cap
        if sym != "H" and sym not in ATOMIC_WEIGHTS:
            raise SmilesError(f"unknown element {sym!r}", offset)
    if body.startswith("@@", i):
        i += 2
    elif i < n and body[i] == "@":
        i += 1
    hcount = 0
    if i < n and body[i] == "H":
        i += 1
        j = i
        while j < n and body[j].isdigit():
            j += 1
        hcount = int(body[i:j]) if j > i else 1
        i = j
    charge = 0
    if i < n and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        ch = body[i]
        j = i + 1
        if j < n and body[j].isdigit():
            k = j
            while k < n and body[k].isdigit():
                k += 1
            charge = sign * int(body[j:k])
            i = k
        else:
            count = 1
            while j < n and body[j] == ch:
                count += 1
                j += 1
            charge = sign * count
            i = j
    if i < n and body[i] == ":":
        j = i + 1
        while j < n and body[j].isdigit():
            j += 1
        if j == i + 1:
            raise SmilesError(f"bad atom class in [{body}]", offset)
        i = j  # atom maps are accepted and discarded
    if i != n:
        raise SmilesError(f"bad bracket atom [{body}]", offset)

    atom = _WorkAtom(
        element=sym, aromatic=aromatic, charge=charge, h_total=hcount,
        isotope=isotope, bracket=True,
    )
    if sym == DUMMY:
        if isotope is not None:
            if not 1 <= isotope <= 16:
                raise SmilesError(f"dummy link label {isotope} outside 1..16", offset)
            atom.link_label = isotope
            atom.isotope = None
    return atom


def parse_smiles_reference(text: str) -> Molecule:
    """Parse a SMILES string into a Molecule.

    Raises SmilesError (with byte offset) on syntax problems: unmatched
    ring closures or brackets, unknown elements, misplaced bonds. Valence
    problems are not raised here; see :func:`validate`.
    """
    if not text:
        raise SmilesError("empty SMILES", 0)

    atoms: list[_WorkAtom] = []
    bonds: list[tuple[int, int, int | None]] = []  # a, b, order
    prev: int | None = None
    pending_bond: int | None = None
    marked = False  # a bond symbol or a / or \ mark not yet placed
    branch_stack: list[tuple[int, int]] = []
    ring_open: dict[int, tuple[int, int | None, int]] = {}

    bond_pairs: set[frozenset[int]] = set()

    def add_bond(a: int, b: int, order: int | None, off: int) -> None:
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", off)
        pair = frozenset((a, b))
        if pair in bond_pairs:
            raise SmilesError("duplicate bond between the same atoms", off)
        bond_pairs.add(pair)
        bonds.append((a, b, order))

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        new_atom: _WorkAtom | None = None
        if ch == "[":
            end = text.find("]", i + 1)
            if end == -1:
                raise SmilesError("unterminated bracket atom", i)
            new_atom = _parse_bracket(text[i + 1 : end], i)
            i = end + 1
        elif text[i : i + 2] in _TWO_LETTER:
            new_atom = _WorkAtom(element=text[i : i + 2])
            i += 2
        elif ch in "BCNOPSFI":
            new_atom = _WorkAtom(element=ch)
            i += 1
        elif ch in "bcnops":
            new_atom = _WorkAtom(element=ch.upper(), aromatic=True)
            i += 1
        elif ch == DUMMY:
            new_atom = _WorkAtom(element=DUMMY)
            i += 1
        elif ch in BOND_ORDERS or ch in "/\\":
            if marked:
                raise SmilesError("two bond symbols in a row", i)
            marked = True
            pending_bond = BOND_ORDERS.get(ch)  # a stereo mark sets no order
            i += 1
            continue
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch before any atom", i)
            branch_stack.append((prev, len(atoms)))
            i += 1
            continue
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if marked:
                raise SmilesError("bond symbol before ')'", i)
            origin, n_before = branch_stack.pop()
            if len(atoms) == n_before:
                raise SmilesError("empty branch", i)
            if prev is None:
                raise SmilesError("empty component", i)
            prev = origin
            i += 1
            continue
        elif ch == ".":
            if marked:
                raise SmilesError("bond symbol before '.'", i)
            if prev is None:
                raise SmilesError("empty component", i)
            prev = None
            i += 1
            continue
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                    raise SmilesError("'%' needs two digits", i)
                num = int(text[i + 1 : i + 3])
                i += 3
            else:
                num = int(ch)
                i += 1
            if prev is None:
                raise SmilesError("ring closure before any atom", i - 1)
            if num in ring_open:
                other, order0, _ = ring_open.pop(num)
                order = pending_bond if pending_bond is not None else order0
                if order0 is not None and pending_bond is not None and order0 != pending_bond:
                    raise SmilesError(f"conflicting orders on ring closure {num}", i - 1)
                add_bond(other, prev, order, i - 1)
            else:
                ring_open[num] = (prev, pending_bond, i - 1)
            pending_bond = None
            marked = False
            continue
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

        idx = len(atoms)
        atoms.append(new_atom)
        if prev is not None:
            add_bond(prev, idx, pending_bond, i - 1)
        elif marked:
            raise SmilesError("dangling bond symbol", i - 1)
        pending_bond = None
        marked = False
        prev = idx

    if ring_open:
        num, (_, _, off) = min(ring_open.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {num}", off)
    if branch_stack:
        raise SmilesError("unmatched '('", n - 1)
    if marked:
        raise SmilesError("dangling bond symbol", n - 1)
    if prev is None:
        raise SmilesError("empty component", n - 1)

    return _assemble(atoms, bonds, text)


# Molecule assembly and aromaticity perception as they stood before
# perception was gated, verbatim but for the name of ``_assemble``: a
# provisional molecule for ring membership, then perception on its
# ``small_rings`` for every parse.
def assemble_reference(
    work: list[_WorkAtom],
    raw_bonds: list[tuple[int, int, int | None]],
    text: str,
) -> Molecule:
    """Resolve default bond orders, fill hydrogens, perceive aromatic rings."""
    orders: list[int] = []
    for a, b, order in raw_bonds:
        if order is None:
            order = AROMATIC if (work[a].aromatic and work[b].aromatic) else SINGLE
        orders.append(order)

    # Provisional molecule to find ring membership, then demote default
    # aromatic bonds that ended up outside any ring (e.g. biphenyl).
    provisional = Molecule(
        atoms=tuple(Atom(element=w.element, aromatic=w.aromatic) for w in work),
        bonds=tuple(
            Bond(a, b, o)
            for (a, b, _), o in zip(raw_bonds, orders)
        ),
        source_text=text,
    )
    ring = provisional.ring_bonds
    for bi, (a, b, order) in enumerate(raw_bonds):
        if order is None and orders[bi] == AROMATIC and not ring >> bi & 1:
            orders[bi] = SINGLE

    adj: list[list[tuple[int, int]]] = [[] for _ in work]
    for (a, b, _), o in zip(raw_bonds, orders):
        adj[a].append((b, o))
        adj[b].append((a, o))

    for i, w in enumerate(work):
        if w.bracket or w.element == DUMMY:
            continue
        w.h_total = _default_hydrogens(
            w.element, w.aromatic, [o for _, o in adj[i]]
        )

    _perceive_aromatic(work, raw_bonds, orders, adj, provisional)

    atoms = tuple(
        Atom(
            element=w.element,
            aromatic=w.aromatic,
            formal_charge=w.charge,
            h_total=w.h_total,
            isotope=w.isotope,
            link_label=w.link_label,
        )
        for w in work
    )
    bonds = tuple(
        Bond(a, b, o)
        for (a, b, _), o in zip(raw_bonds, orders)
    )
    mol = Molecule(atoms=atoms, bonds=bonds, source_text=text)
    # Same bonds in the same order: the topology perceived on the
    # provisional molecule holds for this one too.
    for name in ("neighbors", "ring_bonds", "small_rings"):
        mol.__dict__[name] = getattr(provisional, name)
    return mol


_INELIGIBLE = -1


def _pi_contribution(i: int, work: list[_WorkAtom], adj, cluster: set[int]) -> int:
    """Pi electrons atom i donates to an aromatic system, or _INELIGIBLE."""
    w = work[i]
    el = w.element
    if el not in ("C", "N", "O", "S", "P", "B"):
        return _INELIGIBLE
    if w.aromatic:
        if el == "C":
            return 1
        if el in ("O", "S"):
            return 2
        if el == "B":
            return 0
        # N/P: three sigma partners (bonds + H) means the lone pair is in the ring
        return 2 if (len(adj[i]) + w.h_total) >= 3 else 1
    if w.charge != 0:
        return _INELIGIBLE
    doubles_in = doubles_out = triples = 0
    for j, o in adj[i]:
        if o == TRIPLE:
            triples += 1
        elif o == DOUBLE:
            if j in cluster:
                doubles_in += 1
            else:
                doubles_out += 1
    if triples:
        return _INELIGIBLE
    if doubles_in > 1:
        return _INELIGIBLE
    if doubles_in == 1:
        return 1
    if doubles_out:
        # Exocyclic double bond: carbon contributes an empty-ish orbital.
        return 0 if el in ("C", "S") else _INELIGIBLE
    if el in ("N", "P", "O", "S"):
        return 2
    if el == "B":
        return 0
    return _INELIGIBLE  # saturated carbon


def _perceive_aromatic(work, raw_bonds, orders, adj, provisional: Molecule) -> None:
    """Upgrade Huckel-count rings written in Kekule form to aromatic.

    ``adj`` holds each atom's (neighbour, order) pairs under ``orders``."""
    rings = provisional.small_rings
    if not rings:
        return
    candidates = [r for r in rings if len(r) in (5, 6)]
    # Cluster rings sharing atoms so fused systems are counted together.
    clusters: list[list[tuple[int, ...]]] = []
    assigned: dict[int, int] = {}
    for ring in candidates:
        hit = sorted({assigned[a] for a in ring if a in assigned})
        if not hit:
            idx = len(clusters)
            clusters.append([ring])
        else:
            idx = hit[0]
            clusters[idx].append(ring)
            for other in hit[1:]:
                clusters[idx].extend(clusters[other])
                clusters[other] = []
        for r in clusters[idx]:
            for a in r:
                assigned[a] = idx

    def try_aromatize(ring_group: list[tuple[int, ...]]) -> bool:
        atom_set = {a for r in ring_group for a in r}
        contribs = {}
        for a in atom_set:
            c = _pi_contribution(a, work, adj, atom_set)
            if c == _INELIGIBLE:
                return False
            contribs[a] = c
        pi = sum(contribs.values())
        if pi % 4 != 2:
            return False
        for a in atom_set:
            work[a].aromatic = True
        ring_bond_pairs = set()
        for r in ring_group:
            for x in range(len(r)):
                ring_bond_pairs.add(frozenset((r[x], r[(x + 1) % len(r)])))
        for bi, (a, b, _) in enumerate(raw_bonds):
            if frozenset((a, b)) in ring_bond_pairs and orders[bi] in (SINGLE, DOUBLE):
                orders[bi] = AROMATIC
        return True

    for group in clusters:
        if not group:
            continue
        if not try_aromatize(group):
            for ring in group:
                try_aromatize([ring])


# Kekulé forms. Each aromatic atom takes as many double bonds as its
# valence leaves after its sigma bonds and hydrogens: 1 for the carbons of
# benzene and pyridine's nitrogen, 0 for pyrrole's [nH], furan's o and
# thiophene's s, and for a carbon with an exocyclic double bond.
_KEKULE_VALENCE = {"B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2, "As": 3, "Se": 2}


def kekule_form(m: Molecule) -> Molecule | None:
    """``m`` with every aromatic bond made single or double by a perfect
    matching of the aromatic atoms that need a double bond, and every atom
    non-aromatic; None when no such matching exists."""
    needy = set()
    for i, a in enumerate(m.atoms):
        if not a.aromatic:
            continue
        valence = _KEKULE_VALENCE.get(a.element)
        if valence is None:
            return None
        # A charge adds a bond to N, P, As, O, S, Se and removes one from B, C.
        valence += -abs(a.formal_charge) if a.element in ("B", "C") else a.formal_charge
        sigma = a.h_total + sum(
            1 if m.bonds[bi].order == AROMATIC else m.bonds[bi].order for _, bi in m.neighbors[i]
        )
        if valence - sigma not in (0, 1):
            return None
        if valence - sigma:
            needy.add(i)
    partners = {
        i: [(j, bi) for j, bi in m.neighbors[i] if j in needy and m.bonds[bi].order == AROMATIC]
        for i in needy
    }
    todo = sorted(needy)
    double: dict[int, int] = {}  # matched atom -> its double bond

    def extend(k: int) -> bool:
        while k < len(todo) and todo[k] in double:
            k += 1
        if k == len(todo):
            return True
        i = todo[k]
        for j, bi in partners[i]:
            if j not in double:
                double[i] = double[j] = bi
                if extend(k + 1):
                    return True
                del double[i], double[j]
        return False

    if not extend(0):
        return None
    doubles = set(double.values())
    bonds = tuple(
        Bond(b.a, b.b, DOUBLE if bi in doubles else SINGLE)
        if b.order == AROMATIC else b
        for bi, b in enumerate(m.bonds)
    )
    atoms = tuple(dataclasses.replace(a, aromatic=False) for a in m.atoms)
    return Molecule(atoms=atoms, bonds=bonds, source_text="")
