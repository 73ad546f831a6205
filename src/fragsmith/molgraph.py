"""Molecular graphs from SMILES: parsing, validation, canonical serialization.

The supported SMILES subset covers the organic subset, bracket atoms with
isotopes/charges/explicit hydrogens, ring closures (including %nn), dot
disconnections, and dummy atoms ``[n*]`` carrying link labels 1..16.
Stereo markers (/, \\, @, @@) are parsed and preserved as annotations but
never interpreted; the canonical writer omits them.

Kekule-form rings that pass a Huckel electron count are normalized to
aromatic form at parse time, so alternative serializations of the same
aromatic system produce identical graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .elements import (
    AROMATIC_ELEMENTS,
    AROMATIC_ORGANIC,
    ATOMIC_NUMBERS,
    ATOMIC_WEIGHTS,
    DUMMY,
    ORGANIC_SUBSET,
    allowed_valences,
)

H_WEIGHT = ATOMIC_WEIGHTS["H"]

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_BOND_SYMBOLS = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1.5}
# Integer bond contribution used by the valence check: an aromatic bond
# occupies one sigma slot.
_SIGMA_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}


class SmilesError(ValueError):
    """Syntax error in a SMILES string, tagged with the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    """One atom of a molecular graph.

    ``explicit_h`` is the bracket-specified hydrogen count; ``implicit_h``
    is filled from the valence model for organic-subset atoms. Dummy atoms
    (``element == "*"``) carry the BRICS link label in ``link_label``.
    """

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int = 0
    isotope: int | None = None
    link_label: int | None = None
    implicit_h: int = 0
    stereo: str | None = None

    @property
    def h_total(self) -> int:
        return self.explicit_h + self.implicit_h

    @property
    def is_dummy(self) -> bool:
        return self.element == DUMMY


@dataclass(frozen=True)
class Bond:
    """Edge between two atom indices. ``stereo_annotation`` keeps /\\ marks."""

    endpoints: tuple[int, int]
    order: str = SINGLE
    stereo_annotation: str | None = None


class _lazy:
    """A lazily computed attribute: the first read calls the method and
    stores the value in the instance ``__dict__``, where later reads find
    it without reaching this descriptor. Unlike ``functools.cached_property``
    on Python 3.11, it takes no lock."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    failures: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Molecule:
    """Immutable attributed molecular graph plus the text it came from."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source_text: str

    @_lazy
    def neighbors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-atom tuple of (neighbor atom index, bond index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bi, bond in enumerate(self.bonds):
            a, b = bond.endpoints
            adj[a].append((b, bi))
            adj[b].append((a, bi))
        return tuple(map(tuple, adj))

    @_lazy
    def ring_bonds(self) -> frozenset[int]:
        """Indices of bonds that lie on at least one cycle."""
        return frozenset(range(len(self.bonds))) - _bridges(self)

    @_lazy
    def ring_atoms(self) -> frozenset[int]:
        atoms = set()
        for bi in self.ring_bonds:
            atoms.update(self.bonds[bi].endpoints)
        return frozenset(atoms)

    @_lazy
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted atom-index tuples."""
        return connected_components(self)

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1

    @_lazy
    def validity(self) -> ValidityReport:
        """The :func:`validate` report, computed once per molecule."""
        return validate(self)

    @_lazy
    def small_rings(self) -> tuple[tuple[int, ...], ...]:
        """One shortest cycle of at most 8 atoms through every ring bond
        (a compact cycle set).

        Each bond's cycle is the breadth-first path between its ends
        without it. The search follows ring bonds only, since a bridge
        never leads back to the ring, and stops after the level on which
        the far end is discovered, since a node's predecessor is fixed
        when it is discovered."""
        ring_bonds = self.ring_bonds
        ring_adj = [[nb for nb in nbrs if nb[1] in ring_bonds] for nbrs in self.neighbors]
        rings: list[tuple[int, ...]] = []
        seen: set[frozenset[int]] = set()
        for bi in sorted(ring_bonds):
            src, dst = self.bonds[bi].endpoints
            prev = {src: -1}
            frontier = [src]
            for _ in range(7):  # paths of up to 7 bonds
                nxt = []
                for node in frontier:
                    for j, bj in ring_adj[node]:
                        if bj != bi and j not in prev:
                            prev[j] = node
                            nxt.append(j)
                frontier = nxt
                if dst in prev or not frontier:
                    break
            if dst not in prev:
                continue
            path = [dst]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            key = frozenset(path)
            if key not in seen:
                seen.add(key)
                rings.append(tuple(reversed(path)))
        return tuple(rings)

    @_lazy
    def atoms_by_kind(self) -> dict[tuple[str, bool], tuple[int, ...]]:
        """Ascending atom indices keyed by (element, aromatic); read-only."""
        index: dict[tuple[str, bool], list[int]] = {}
        for i, a in enumerate(self.atoms):
            index.setdefault((a.element, a.aromatic), []).append(i)
        return {kind: tuple(idx) for kind, idx in index.items()}

    def degree(self, idx: int) -> int:
        return len(self.neighbors[idx])


def connected_components(
    m: Molecule, without: set[int] | frozenset[int] = frozenset()
) -> tuple[tuple[int, ...], ...]:
    """Connected components of ``m`` with the bonds in ``without`` removed,
    as sorted atom-index tuples ordered by their lowest atom index."""
    seen: set[int] = set()
    comps = []
    for start in range(len(m.atoms)):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, bi in m.neighbors[i]:
                if j not in seen and bi not in without:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _bridges(m: Molecule) -> set[int]:
    """Bond indices whose removal disconnects the graph (iterative DFS)."""
    nbrs = m.neighbors
    n = len(nbrs)
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            node, parent_bond, rest = stack[-1]
            for nbr, bi in rest:
                if bi == parent_bond:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    stack.append((nbr, bi, iter(nbrs[nbr])))
                    break
                if disc[nbr] < low[node]:
                    low[node] = disc[nbr]
            else:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    if low[node] < low[pnode]:
                        low[pnode] = low[node]
                    if low[node] > disc[pnode]:
                        bridges.add(parent_bond)
    return bridges


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TWO_LETTER = ("Cl", "Br")


@dataclass
class _WorkAtom:
    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_h: int = 0
    isotope: int | None = None
    link_label: int | None = None
    implicit_h: int = 0
    stereo: str | None = None
    bracket: bool = False


def _parse_bracket(body: str, offset: int) -> _WorkAtom:
    """Parse the inside of a bracket atom: isotope symbol stereo H charge."""
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
    stereo = None
    if i < n and body[i] == "@":
        j = i
        while j < n and body[j] == "@":
            j += 1
        stereo = body[i:j]
        i = j
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
        element=sym, aromatic=aromatic, charge=charge, explicit_h=hcount,
        isotope=isotope, stereo=stereo, bracket=True,
    )
    if sym == DUMMY:
        if isotope is not None:
            if not 1 <= isotope <= 16:
                raise SmilesError(f"dummy link label {isotope} outside 1..16", offset)
            atom.link_label = isotope
            atom.isotope = None
    return atom


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a Molecule.

    Raises SmilesError (with byte offset) on syntax problems: unmatched
    ring closures or brackets, unknown elements, misplaced bonds. Valence
    problems are not raised here; see :func:`validate`.
    """
    if not text:
        raise SmilesError("empty SMILES", 0)

    atoms: list[_WorkAtom] = []
    bonds: list[tuple[int, int, str | None, str | None]] = []  # a, b, order, stereo
    prev: int | None = None
    pending_bond: str | None = None
    pending_stereo: str | None = None
    branch_stack: list[int | None] = []
    ring_open: dict[int, tuple[int, str | None, str | None, int]] = {}

    bond_pairs: set[frozenset[int]] = set()

    def add_bond(a: int, b: int, order: str | None, stereo: str | None, off: int) -> None:
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", off)
        pair = frozenset((a, b))
        if pair in bond_pairs:
            raise SmilesError("duplicate bond between the same atoms", off)
        bond_pairs.add(pair)
        bonds.append((a, b, order, stereo))

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
        elif ch in _BOND_CHARS:
            if pending_bond is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending_bond = _BOND_CHARS[ch]
            i += 1
            continue
        elif ch in "/\\":
            pending_stereo = ch
            i += 1
            continue
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch before any atom", i)
            branch_stack.append(prev)
            i += 1
            continue
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            prev = branch_stack.pop()
            i += 1
            continue
        elif ch == ".":
            if pending_bond is not None:
                raise SmilesError("bond symbol before '.'", i)
            prev = None
            pending_stereo = None
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
                other, order0, stereo0, _ = ring_open.pop(num)
                order = pending_bond if pending_bond is not None else order0
                if order0 is not None and pending_bond is not None and order0 != pending_bond:
                    raise SmilesError(f"conflicting orders on ring closure {num}", i - 1)
                add_bond(other, prev, order, stereo0 or pending_stereo, i - 1)
            else:
                ring_open[num] = (prev, pending_bond, pending_stereo, i - 1)
            pending_bond = None
            pending_stereo = None
            continue
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

        idx = len(atoms)
        atoms.append(new_atom)
        if prev is not None:
            add_bond(prev, idx, pending_bond, pending_stereo, i - 1)
        elif pending_bond is not None:
            raise SmilesError("dangling bond symbol", i - 1)
        pending_bond = None
        pending_stereo = None
        prev = idx

    if ring_open:
        num, (_, _, _, off) = min(ring_open.items(), key=lambda kv: kv[1][3])
        raise SmilesError(f"unmatched ring closure {num}", off)
    if branch_stack:
        raise SmilesError("unmatched '('", n - 1)
    if pending_bond is not None:
        raise SmilesError("dangling bond symbol", n - 1)
    if not atoms:
        raise SmilesError("no atoms in SMILES", 0)

    return _assemble(atoms, bonds, text)


def _assemble(
    work: list[_WorkAtom],
    raw_bonds: list[tuple[int, int, str | None, str | None]],
    text: str,
) -> Molecule:
    """Resolve default bond orders, fill hydrogens, perceive aromatic rings."""
    orders: list[str] = []
    for a, b, order, _ in raw_bonds:
        if order is None:
            order = AROMATIC if (work[a].aromatic and work[b].aromatic) else SINGLE
        orders.append(order)

    # Provisional molecule to find ring membership, then demote default
    # aromatic bonds that ended up outside any ring (e.g. biphenyl).
    provisional = Molecule(
        atoms=tuple(Atom(element=w.element, aromatic=w.aromatic) for w in work),
        bonds=tuple(
            Bond(endpoints=(a, b), order=o)
            for (a, b, _, _), o in zip(raw_bonds, orders)
        ),
        source_text=text,
    )
    ring = provisional.ring_bonds
    for bi, (a, b, order, _) in enumerate(raw_bonds):
        if order is None and orders[bi] == AROMATIC and bi not in ring:
            orders[bi] = SINGLE

    adj: list[list[tuple[int, str]]] = [[] for _ in work]
    for (a, b, _, _), o in zip(raw_bonds, orders):
        adj[a].append((b, o))
        adj[b].append((a, o))

    for i, w in enumerate(work):
        if w.bracket or w.element == DUMMY:
            continue
        w.implicit_h = _default_hydrogens(
            w.element, w.aromatic, [o for _, o in adj[i]]
        )

    _perceive_aromatic(work, raw_bonds, orders, adj, provisional)

    atoms = tuple(
        Atom(
            element=w.element,
            aromatic=w.aromatic,
            formal_charge=w.charge,
            explicit_h=w.explicit_h,
            isotope=w.isotope,
            link_label=w.link_label,
            implicit_h=w.implicit_h,
            stereo=w.stereo,
        )
        for w in work
    )
    bonds = tuple(
        Bond(endpoints=(a, b), order=o, stereo_annotation=s)
        for (a, b, _, s), o in zip(raw_bonds, orders)
    )
    mol = Molecule(atoms=atoms, bonds=bonds, source_text=text)
    # Same bonds in the same order: the topology perceived on the
    # provisional molecule holds for this one too.
    for name in ("neighbors", "ring_bonds", "small_rings"):
        mol.__dict__[name] = getattr(provisional, name)
    return mol


def _default_hydrogens(element: str, aromatic: bool, orders: list[str]) -> int:
    """Implicit hydrogen count for an unbracketed atom in a bond context."""
    valences = allowed_valences(element, 0)
    if not valences:
        return 0
    if aromatic:
        # One sigma slot per bond plus one electron committed to the ring
        # pi system; lowest valence only (thiophene S gets no hydrogen).
        sigma = sum(map(_SIGMA_VALUE.__getitem__, orders))
        return max(0, valences[0] - (sigma + 1))
    total = sum(map(_ORDER_VALUE.__getitem__, orders))
    total = int(total) if total == int(total) else int(total) + 1
    for v in valences:
        if v >= total:
            return v - total
    return 0


# ---------------------------------------------------------------------------
# Aromaticity perception (Kekule -> aromatic normalization)
# ---------------------------------------------------------------------------

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
        return 2 if (len(adj[i]) + w.explicit_h + w.implicit_h) >= 3 else 1
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
        for bi, (a, b, _, _) in enumerate(raw_bonds):
            if frozenset((a, b)) in ring_bond_pairs and orders[bi] in (SINGLE, DOUBLE):
                orders[bi] = AROMATIC
        return True

    for group in clusters:
        if not group:
            continue
        if not try_aromatize(group):
            for ring in group:
                try_aromatize([ring])

    # Refresh adjacency and re-demote any stray aromatic orders between
    # atoms that stayed non-aromatic (defensive; should not trigger).
    for bi, (a, b, _, _) in enumerate(raw_bonds):
        if orders[bi] == AROMATIC and not (work[a].aromatic and work[b].aromatic):
            orders[bi] = SINGLE


# ---------------------------------------------------------------------------
# Validation and measurement
# ---------------------------------------------------------------------------


def validate(m: Molecule) -> ValidityReport:
    """Check valences, aromatic consistency, and report failures as data.

    Dummy atoms are exempt from valence checks. An atom fails when its
    sigma-bond total plus hydrogens exceeds every allowed valence for its
    element and charge, when it is flagged aromatic outside any ring, or
    when an aromatic bond touches a non-aromatic atom.
    """
    failures: list[tuple[int, str]] = []
    for i, atom in enumerate(m.atoms):
        if atom.is_dummy:
            continue
        if atom.aromatic and i not in m.ring_atoms:
            failures.append((i, "aromatic atom outside any ring"))
        valences = allowed_valences(atom.element, atom.formal_charge)
        if valences is None:
            continue
        total = sum(_SIGMA_VALUE[m.bonds[bi].order] for _, bi in m.neighbors[i])
        total += atom.h_total
        if total > max(valences):
            failures.append(
                (i, f"{atom.element} valence {total} exceeds {max(valences)}")
            )
    for bond in m.bonds:
        if bond.order == AROMATIC:
            a, b = bond.endpoints
            if not (m.atoms[a].aromatic and m.atoms[b].aromatic):
                failures.append((a, "aromatic bond between non-aromatic atoms"))
    return ValidityReport(valid=not failures, failures=tuple(failures))


def molecular_weight(m: Molecule) -> float:
    """Sum of standard atomic weights, counting implicit and explicit
    hydrogens; dummy atoms contribute zero."""
    total = 0.0
    for atom in m.atoms:
        if atom.is_dummy:
            continue
        total += ATOMIC_WEIGHTS[atom.element] + atom.h_total * H_WEIGHT
    return total


# ---------------------------------------------------------------------------
# Canonical ranking
# ---------------------------------------------------------------------------

_ORDER_RANK = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


def _component_ranks(m: Molecule, comp: tuple[int, ...], *, break_ties: bool) -> dict[int, int]:
    """Rank the atoms of one connected component (atom index -> rank).

    Atoms are first split by their invariants (atomic number, aromatic,
    charge, isotope, link label, hydrogens, degree, sorted bond ranks, in
    a ring) into ordered cells of positions in ``comp``; an atom's rank is
    the position its cell starts at. Unless that partition is already
    discrete, each round then splits every cell next to one that split in
    the round before (no other cell can split) by its members' sorted
    (bond rank, neighbour rank) multisets, the parts taking its place in
    ascending order. ``break_ties`` then moves the lowest atom index of
    the first tied cell to its front and refines again, until every atom
    has its own rank. The result numbers the cells densely.
    """
    n = len(comp)
    atoms, nbrs, ring_atoms = m.atoms, m.neighbors, m.ring_atoms
    # A component holding every atom is (0, ..., n - 1): range(n) maps it.
    local = range(n) if n == len(atoms) else {a: k for k, a in enumerate(comp)}
    bond_rank = [_ORDER_RANK[b.order] for b in m.bonds]
    # (bond rank * n, neighbour); bond rank * n + neighbour rank sorts as
    # the (bond rank, neighbour rank) pair does.
    adj = [[(bond_rank[bi] * n, local[j]) for j, bi in nbrs[i]] for i in comp]
    keyed = []
    for k, i in enumerate(comp):
        a = atoms[i]
        orders = tuple(sorted([bond_rank[bi] for _, bi in nbrs[i]]))
        keyed.append(((
            ATOMIC_NUMBERS.get(a.element, 99), a.aromatic, a.formal_charge,
            a.isotope or 0, a.link_label or 0, a.explicit_h + a.implicit_h,
            len(orders), orders, i in ring_atoms,
        ), k))
    keyed.sort()
    cells: dict[int, list[int]] = {}  # start position -> members
    rank = [0] * n
    prev = None
    for pos, (key, k) in enumerate(keyed):
        if key != prev:
            start, prev = pos, key
            cells[start] = []
        cells[start].append(k)
        rank[k] = start
    changed = list(cells.values()) if len(cells) < n else []  # split last round
    while True:
        while changed:
            touched = {rank[j] for cell in changed for k in cell for _, j in adj[k]}
            changed = []
            moved = []
            for start in touched:
                cell = cells[start]
                if len(cell) == 1:
                    continue
                keyed = sorted([(sorted([b + rank[j] for b, j in adj[k]]), k) for k in cell])
                prev = keyed[0][0]
                if keyed[-1][0] == prev:
                    continue  # no split
                part: list[int] = []
                for key, k in keyed:
                    if key != prev:
                        cells[start] = part
                        moved.append((start, part))
                        start, prev, part = start + len(part), key, []
                    part.append(k)
                cells[start] = part
                moved.append((start, part))
            for start, part in moved:
                changed.append(part)
                for k in part:
                    rank[k] = start
        if not break_ties or len(cells) == n:
            return {comp[k]: r for r, start in enumerate(sorted(cells)) for k in cells[start]}
        start = min(s for s, cell in cells.items() if len(cell) > 1)
        promote = min(cells[start], key=comp.__getitem__)
        changed = [[promote], [k for k in cells[start] if k != promote]]
        cells[start], cells[start + 1] = changed
        for k in changed[1]:
            rank[k] = start + 1


def symmetry_classes(m: Molecule) -> dict[int, int]:
    """Refined symmetry partition (no tie-breaking): atoms sharing a class
    are interchangeable under every invariant this module tracks."""
    out: dict[int, int] = {}
    for comp in m.components:
        comp_ranks = _component_ranks(m, comp, break_ties=False)
        for i, r in comp_ranks.items():
            out[i] = r
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _atom_token(m: Molecule, i: int) -> str:
    a = m.atoms[i]
    el = a.element
    if el == DUMMY:
        return f"[{a.link_label}*]" if a.link_label else DUMMY
    sym = el.lower() if a.aromatic else el
    h = a.explicit_h + a.implicit_h
    if (
        a.isotope is None
        and a.formal_charge == 0
        and el in ORGANIC_SUBSET
        and (not a.aromatic or sym in AROMATIC_ORGANIC)
        and h == _default_hydrogens(el, a.aromatic, [m.bonds[bi].order for _, bi in m.neighbors[i]])
    ):
        return sym
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


def _bond_token(m: Molecule, bi: int) -> str:
    bond = m.bonds[bi]
    a, b = bond.endpoints
    if bond.order == SINGLE:
        both_aromatic = m.atoms[a].aromatic and m.atoms[b].aromatic
        if both_aromatic and bi in m.ring_bonds:
            return "-"
        return ""
    if bond.order == AROMATIC:
        return ""
    return _BOND_SYMBOLS[bond.order]


def _write_component(m: Molecule, comp: tuple[int, ...], order: dict[int, int]) -> str:
    """Write one connected component in a single depth-first pass.

    ``order`` gives every atom of ``comp`` a distinct sort key. Each atom
    is written when it is popped from the stack, and its neighbours are
    sorted once by key. An unvisited neighbour becomes a child, marked
    visited at once; any other neighbour, except the one reached through
    the parent bond, is a ring closure, and its digit is opened (the
    lowest free one) or closed right after the atom. Children are pushed
    so the lowest-keyed one is written first; every child but the last
    opens a branch, and each leaf closes the innermost open branch.
    """
    nbrs = m.neighbors
    # Rooting at a low-degree atom keeps the output chain-like; degree is a
    # graph invariant, so canonical determinism is unaffected.
    root = min(comp, key=lambda i: (len(nbrs[i]), order[i]))
    parent_bond = {root: -1}  # the visited atoms; the root has no parent bond
    branch_set: set[int] = set()
    open_digits: dict[int, int] = {}  # bond index -> digit
    used_digits: set[int] = set()
    branch_open = 0
    out: list[str] = []
    stack = [root]
    while stack:
        cur = stack.pop()
        if cur in branch_set:
            out.append("(")
            branch_open += 1
        pb = parent_bond[cur]
        if pb >= 0:
            out.append(_bond_token(m, pb))
        out.append(_atom_token(m, cur))
        kids = []
        for _, j, bi in sorted([(order[j], j, bi) for j, bi in nbrs[cur]]):
            if j not in parent_bond:
                parent_bond[j] = bi
                kids.append(j)
            elif bi == pb:
                continue
            elif bi in open_digits:
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
        if kids:
            branch_set.update(kids[:-1])
            stack += reversed(kids)
        elif branch_open:
            out.append(")")
            branch_open -= 1
    out.append(")" * branch_open)
    return "".join(out)


def write_smiles(m: Molecule, *, rng: random.Random | None = None) -> str:
    """Serialize a Molecule. Canonical when ``rng`` is None, otherwise a
    randomized but equivalent serialization (atom visit order shuffled).

    Each connected component is written in one depth-first pass (see
    :func:`_write_component`), visiting neighbours in canonical rank
    order or, with ``rng``, in a shuffled order; canonical components
    are joined in sorted order, randomized ones in shuffled order.
    """
    parts = []
    for comp in m.components:
        if rng is None:
            order = _component_ranks(m, comp, break_ties=True)
        else:
            shuffled = list(comp)
            rng.shuffle(shuffled)
            order = {atom: pos for pos, atom in enumerate(shuffled)}
        parts.append(_write_component(m, comp, order))
    if rng is None:
        parts.sort()
    else:
        rng.shuffle(parts)
    return ".".join(parts)


def canonical_smiles(m: Molecule) -> str:
    """Deterministic canonical serialization of the molecular graph.

    Isomorphic attributed graphs give byte-identical output; the output
    re-parses to an isomorphic graph. Stereo annotations are dropped.
    """
    return write_smiles(m)


def randomized_smiles(m: Molecule, seed: int) -> str:
    """An equivalent SMILES with randomized atom order, for robustness tests."""
    return write_smiles(m, rng=random.Random(seed))
