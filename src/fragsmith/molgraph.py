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
from functools import cached_property

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

    def other(self, idx: int) -> int:
        a, b = self.endpoints
        return b if idx == a else a


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

    @cached_property
    def neighbors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-atom tuple of (neighbor atom index, bond index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bi, bond in enumerate(self.bonds):
            a, b = bond.endpoints
            adj[a].append((b, bi))
            adj[b].append((a, bi))
        return tuple(tuple(n) for n in adj)

    @cached_property
    def ring_bonds(self) -> frozenset[int]:
        """Indices of bonds that lie on at least one cycle."""
        return frozenset(range(len(self.bonds))) - _bridges(self)

    @cached_property
    def ring_atoms(self) -> frozenset[int]:
        atoms = set()
        for bi in self.ring_bonds:
            atoms.update(self.bonds[bi].endpoints)
        return frozenset(atoms)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted atom-index tuples."""
        seen: set[int] = set()
        comps = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j, _ in self.neighbors[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1

    @cached_property
    def validity(self) -> ValidityReport:
        """The :func:`validate` report, computed once per molecule."""
        return validate(self)

    @cached_property
    def small_rings(self) -> tuple[tuple[int, ...], ...]:
        """One shortest cycle of at most 8 atoms through every ring bond
        (a compact cycle set)."""
        rings: list[tuple[int, ...]] = []
        seen: set[frozenset[int]] = set()
        for bi in sorted(self.ring_bonds):
            a, b = self.bonds[bi].endpoints
            path = _shortest_path(self, a, b, skip_bond=bi, limit=7)
            if path is None:
                continue
            key = frozenset(path)
            if key not in seen:
                seen.add(key)
                rings.append(tuple(path))
        return tuple(rings)

    @cached_property
    def atoms_by_kind(self) -> dict[tuple[str, bool], tuple[int, ...]]:
        """Ascending atom indices keyed by (element, aromatic); read-only."""
        index: dict[tuple[str, bool], list[int]] = {}
        for i, a in enumerate(self.atoms):
            index.setdefault((a.element, a.aromatic), []).append(i)
        return {kind: tuple(idx) for kind, idx in index.items()}

    def degree(self, idx: int) -> int:
        return len(self.neighbors[idx])


def _bridges(m: Molecule) -> set[int]:
    """Bond indices whose removal disconnects the graph (iterative DFS)."""
    n = len(m.atoms)
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent_bond, ni = stack[-1]
            if ni == 0:
                disc[node] = low[node] = timer
                timer += 1
            if ni < len(m.neighbors[node]):
                stack[-1] = (node, parent_bond, ni + 1)
                nbr, bi = m.neighbors[node][ni]
                if bi == parent_bond:
                    continue
                if disc[nbr] == -1:
                    stack.append((nbr, bi, 0))
                else:
                    low[node] = min(low[node], disc[nbr])
            else:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
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

    _perceive_aromatic(work, raw_bonds, orders, provisional)

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
    return Molecule(atoms=atoms, bonds=bonds, source_text=text)


def _default_hydrogens(element: str, aromatic: bool, orders: list[str]) -> int:
    """Implicit hydrogen count for an unbracketed atom in a bond context."""
    valences = allowed_valences(element, 0)
    if not valences:
        return 0
    if aromatic:
        # One sigma slot per bond plus one electron committed to the ring
        # pi system; lowest valence only (thiophene S gets no hydrogen).
        sigma = sum(_SIGMA_VALUE[o] for o in orders)
        return max(0, valences[0] - (sigma + 1))
    total = sum(_ORDER_VALUE[o] for o in orders)
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


def _perceive_aromatic(work, raw_bonds, orders, provisional: Molecule) -> None:
    """Upgrade Huckel-count rings written in Kekule form to aromatic."""
    rings = provisional.small_rings
    if not rings:
        return
    adj: list[list[tuple[int, str]]] = [[] for _ in work]
    for (a, b, _, _), o in zip(raw_bonds, orders):
        adj[a].append((b, o))
        adj[b].append((a, o))

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


def _shortest_path(m: Molecule, src: int, dst: int, skip_bond: int, limit: int):
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


def _initial_invariants(m: Molecule, comp: tuple[int, ...]) -> dict[int, tuple]:
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


def _dense(keys: dict[int, tuple]) -> dict[int, int]:
    ordered = sorted(set(keys.values()))
    lookup = {k: r for r, k in enumerate(ordered)}
    return {i: lookup[k] for i, k in keys.items()}


def _refine(m: Molecule, ranks: dict[int, int]) -> dict[int, int]:
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


def _component_ranks(m: Molecule, comp: tuple[int, ...], *, break_ties: bool) -> dict[int, int]:
    ranks = _refine(m, _dense(_initial_invariants(m, comp)))
    if not break_ties:
        return ranks
    while len(set(ranks.values())) < len(comp):
        by_rank: dict[int, list[int]] = {}
        for i, r in ranks.items():
            by_rank.setdefault(r, []).append(i)
        tied = min((r for r, members in by_rank.items() if len(members) > 1))
        promote = min(by_rank[tied])
        keys = {i: (ranks[i], 0 if i == promote else 1) for i in ranks}
        ranks = _refine(m, _dense(keys))
    return ranks


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


def _write_component(m: Molecule, comp: tuple[int, ...], order_key) -> str:
    # Rooting at a low-degree atom keeps the output chain-like; degree is a
    # graph invariant, so canonical determinism is unaffected.
    root = min(comp, key=lambda i: (m.degree(i), order_key(i)))
    successors: dict[int, list[int]] = {}
    tree_bonds: set[int] = set()
    visited = {root}
    stack = [root]
    parent_bond: dict[int, int] = {}
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
        # Reverse so the lowest-ranked child is emitted first.
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
    # Ring-closure digits are assigned in emission order at each atom.
    atom_ring_bonds: dict[int, list[int]] = {}
    for bi in ring_bond_ids:
        a, b = m.bonds[bi].endpoints
        atom_ring_bonds.setdefault(a, []).append(bi)
        atom_ring_bonds.setdefault(b, []).append(bi)
    for i in atom_ring_bonds:
        atom_ring_bonds[i].sort(key=lambda bi: order_key(m.bonds[bi].other(i)))

    out: list[str] = []
    open_digits: dict[int, int] = {}  # bond index -> digit
    used_digits: set[int] = set()
    branch_open = 0
    to_visit: list[int] = [root]
    branch_set: set[int] = set()
    pred: dict[int, int] = {}
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


def write_smiles(m: Molecule, *, rng: random.Random | None = None) -> str:
    """Serialize a Molecule. Canonical when ``rng`` is None, otherwise a
    randomized but equivalent serialization (atom visit order shuffled)."""
    parts = []
    for comp in m.components:
        if rng is None:
            ranks = _component_ranks(m, comp, break_ties=True)
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


def canonical_smiles(m: Molecule) -> str:
    """Deterministic canonical serialization of the molecular graph.

    Isomorphic attributed graphs give byte-identical output; the output
    re-parses to an isomorphic graph. Stereo annotations are dropped.
    """
    return write_smiles(m)


def randomized_smiles(m: Molecule, seed: int) -> str:
    """An equivalent SMILES with randomized atom order, for robustness tests."""
    return write_smiles(m, rng=random.Random(seed))
