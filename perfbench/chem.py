"""A small SMILES reader, writer and graph-identity test for the benchmark.

It shares no code with fragsmith, so the inputs it writes and the facts it
derives (which lines are the same molecule, which edits change a
molecule) do not depend on the program under test. It covers what the
benchmark's generator produces: organic-subset and bracket atoms, single,
double, triple and aromatic bonds, branches, ring closures (digits and
``%nn``) and dot-separated components.
"""

from __future__ import annotations

import hashlib
import random
import re

_TOKEN = re.compile(r"\[[^\[\]]+\]|Cl|Br|[BCNOPSFIbcnosp*]|%\d\d|\d|[-=#:().]")
_BOND_CHARS = "-=#:"
_AROMATIC_ORGANIC = set("bcnosp")

# Bond orders as written: "-" single, "=" double, "#" triple, ":" aromatic.
_SIGMA = {"-": 1, ":": 1, "=": 2, "#": 3}
_ORDER_SUM = {"-": 1.0, ":": 1.5, "=": 2.0, "#": 3.0}


def is_aromatic(atom: str) -> bool:
    if atom.startswith("["):
        body = atom[1:].lstrip("0123456789")
        return body[:1].islower()
    return atom in _AROMATIC_ORGANIC


class Graph:
    """Atoms as written (``"c"``, ``"Cl"``, ``"[N+]"``) and an adjacency
    list mapping each neighbour to the bond order character."""

    __slots__ = ("atoms", "adj", "ends")

    def __init__(self) -> None:
        self.atoms: list[str] = []
        self.adj: list[dict[int, str]] = []
        # For parsed text: the offset just past each atom and its ring
        # closure labels, where a branch may be inserted.
        self.ends: list[int] = []

    def add_atom(self, text: str) -> int:
        self.atoms.append(text)
        self.adj.append({})
        self.ends.append(0)
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order: str | None = None) -> None:
        if a == b or b in self.adj[a]:
            raise ValueError("self bond or duplicate bond")
        if order is None:
            order = ":" if is_aromatic(self.atoms[a]) and is_aromatic(self.atoms[b]) else "-"
        self.adj[a][b] = order
        self.adj[b][a] = order

    def bonds(self) -> list[tuple[int, int, str]]:
        return [(a, b, o) for a, nbrs in enumerate(self.adj) for b, o in nbrs.items() if a < b]

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        comps = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            seen.add(start)
            comp, stack = [], [start]
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def hydrogens(self, i: int) -> int:
        """Implicit or bracket hydrogens of atom ``i`` (organic-subset
        default valences; aromatic atoms commit one electron to the ring)."""
        atom = self.atoms[i]
        if atom.startswith("["):
            m = re.search(r"H(\d*)", atom[1:])
            return (int(m.group(1)) if m.group(1) else 1) if m else 0
        if atom == "*":
            return 0
        elem = atom.capitalize()
        valences = _VALENCES[elem]
        if is_aromatic(atom):
            sigma = sum(_SIGMA[o] for o in self.adj[i].values())
            return max(0, valences[0] - sigma - 1)
        total = sum(_ORDER_SUM[o] for o in self.adj[i].values())
        for v in valences:
            if v >= total:
                return int(v - total)
        return 0


_VALENCES = {
    "B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5), "S": (2, 4, 6),
    "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
}

WEIGHTS = {
    "H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998,
    "P": 30.974, "S": 32.06, "Cl": 35.45, "Br": 79.904, "I": 126.904,
}


def element(atom: str) -> str:
    """Element symbol of a written atom, capitalized (``"c"`` -> ``"C"``)."""
    body = atom[1:].lstrip("0123456789") if atom.startswith("[") else atom
    if body[:2] in ("Cl", "Br"):
        return body[:2]
    return body[0].upper()


def parse(text: str) -> Graph:
    """Read SMILES text into a Graph. Raises ValueError on text outside
    the covered subset or on unbalanced branches and ring closures."""
    g = Graph()
    prev: int | None = None
    branches: list[int | None] = []
    rings: dict[int, tuple[int, str | None]] = {}
    pending: str | None = None
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unreadable text at offset {pos}")
        pos = m.end()
        tok = m.group()
        if tok == "(":
            branches.append(prev)
        elif tok == ")":
            if not branches:
                raise ValueError("unmatched ')'")
            prev = branches.pop()
        elif tok == ".":
            prev = None
        elif tok in _BOND_CHARS:
            pending = tok
        elif tok[0] == "%" or tok.isdigit():
            if prev is None:
                raise ValueError("ring closure before any atom")
            num = int(tok.lstrip("%"))
            if num in rings:
                other, order = rings.pop(num)
                g.add_bond(other, prev, pending or order)
            else:
                rings[num] = (prev, pending)
            g.ends[prev] = pos
            pending = None
        else:
            idx = g.add_atom(tok)
            if prev is not None:
                g.add_bond(prev, idx, pending)
            pending = None
            prev = idx
            g.ends[idx] = pos
    if pos != len(text) or rings or branches or not g.atoms:
        raise ValueError("incomplete SMILES")
    return g


def _bond_text(g: Graph, a: int, b: int) -> str:
    order = g.adj[a][b]
    both = is_aromatic(g.atoms[a]) and is_aromatic(g.atoms[b])
    if order == ":":
        return "" if both else ":"
    if order == "-":
        return "-" if both else ""
    return order


def _ring_label(d: int) -> str:
    return str(d) if d < 10 else f"%{d:02d}"


def _write_component(g: Graph, comp: list[int], rng: random.Random) -> str:
    root = rng.choice(comp)
    parent = {root: -1}
    children: dict[int, list[int]] = {}
    ring_edges: list[tuple[int, int]] = []
    seen_ring: set[frozenset[int]] = set()
    rank: dict[int, int] = {}

    stack = [(root, None)]
    # Iterative DFS: an atom's neighbours are visited in a shuffled order.
    while stack:
        u, it = stack.pop()
        if it is None:
            rank[u] = len(rank)
            children[u] = []
            nbrs = list(g.adj[u])
            rng.shuffle(nbrs)
            it = iter(nbrs)
        for v in it:
            if v == parent[u]:
                continue
            if v in rank:
                edge = frozenset((u, v))
                if edge not in seen_ring:
                    seen_ring.add(edge)
                    ring_edges.append((v, u) if rank[v] < rank[u] else (u, v))
                continue
            parent[v] = u
            children[u].append(v)
            stack.append((u, it))
            stack.append((v, None))
            break

    ring_at: dict[int, list[int]] = {}
    for eid, (a, b) in enumerate(ring_edges):
        ring_at.setdefault(a, []).append(eid)
        ring_at.setdefault(b, []).append(eid)

    out: list[str] = []
    label: dict[int, int] = {}
    in_use: set[int] = set()
    # Emission mirrors the DFS: branches for all but the last child.
    work: list[object] = [root]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u = item
        if parent[u] != -1:
            out.append(_bond_text(g, parent[u], u))
        out.append(g.atoms[u])
        eids = list(ring_at.get(u, ()))
        rng.shuffle(eids)
        closing = [e for e in eids if e in label]
        for e in closing:
            out.append(_ring_label(label[e]))
        for e in eids:
            if e in label:
                continue
            d = 1
            while d in in_use:
                d += 1
            in_use.add(d)
            label[e] = d
            a, b = ring_edges[e]
            out.append(_bond_text(g, a, b) + _ring_label(d))
        for e in closing:
            in_use.discard(label[e])
        kids = children[u]
        # Pushed in reverse so the first child is written first.
        seq: list[object] = []
        for v in kids[:-1]:
            seq.extend(["(", v, ")"])
        if kids:
            seq.append(kids[-1])
        work.extend(reversed(seq))
    return "".join(out)


def write(g: Graph, rng: random.Random) -> str:
    """A random serialization: random component order, root atom and
    neighbour order."""
    comps = g.components()
    rng.shuffle(comps)
    return ".".join(_write_component(g, comp, rng) for comp in comps)


# --- graph identity ----------------------------------------------------------


def _refine(g: Graph) -> tuple[list[str], int]:
    colors = [f"{a}|{g.hydrogens(i)}" for i, a in enumerate(g.atoms)]
    n_classes = len(set(colors))
    rounds = 0
    while True:
        rounds += 1
        new = [
            hashlib.blake2b(
                (colors[i] + "/" + ",".join(sorted(o + colors[j] for j, o in g.adj[i].items()))).encode(),
                digest_size=10,
            ).hexdigest()
            for i in range(len(g.atoms))
        ]
        count = len(set(new))
        colors = new
        if count == n_classes:
            return colors, rounds
        n_classes = count


def identity_key(g: Graph) -> tuple[str, list[str]]:
    """A colour-refinement key equal for isomorphic graphs, plus the atom
    colours that :func:`isomorphic` uses to prune its search."""
    colors, rounds = _refine(g)
    digest = hashlib.sha256(f"{rounds}|{'.'.join(sorted(colors))}".encode()).hexdigest()
    return digest, colors


def isomorphic(g1: Graph, c1: list[str], g2: Graph, c2: list[str]) -> bool:
    """Exact test by backtracking over atoms of equal refined colour."""
    n = len(g1.atoms)
    if n != len(g2.atoms) or sorted(c1) != sorted(c2):
        return False
    by_color: dict[str, list[int]] = {}
    for j, c in enumerate(c2):
        by_color.setdefault(c, []).append(j)
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(n), key=lambda i: len(by_color[c1[i]])):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in g1.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == n:
            return True
        u = order[k]
        for v in by_color[c1[u]]:
            if v in used:
                continue
            if any(
                w in mapping and g2.adj[v].get(mapping[w]) != o
                for w, o in g1.adj[u].items()
            ):
                continue
            mapping[u] = v
            used.add(v)
            if extend(k + 1):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return extend(0)


class IdentitySet:
    """Molecules seen so far, up to graph isomorphism."""

    def __init__(self) -> None:
        self._buckets: dict[str, list[tuple[Graph, list[str]]]] = {}

    def add(self, g: Graph) -> bool:
        """Add ``g``; False when an isomorphic graph is already present."""
        key, colors = identity_key(g)
        bucket = self._buckets.setdefault(key, [])
        if any(isomorphic(g, colors, h, hc) for h, hc in bucket):
            return False
        bucket.append((g, colors))
        return True
