"""Molecular graphs from SMILES: parsing, validation, canonical serialization.

The supported SMILES subset covers the organic subset, bracket atoms,
ring closures (including %nn), dot disconnections, and dummy atoms
``[n*]`` carrying link labels 1..16. A bracket atom is ``[`` isotope?
symbol chirality? H-count? charge? class? ``]``: the symbol is ``*``, an
element (two letters only where the pair names one) or an aromatic
``b c n o p s se as``; a charge is ``+``, ``++`` or ``+2`` (likewise
``-``); the atom class is read and dropped. Only ASCII ``0``-``9`` count
as digits. Stereo markers (``/``, ``\\``, and a chirality of ``@`` or
``@@``) are read and dropped: the graph holds no configuration, so
``F/C=C\\F`` parses to the same atoms and bonds as ``FC=CF``. A ``/`` or
``\\`` stands only where a bond symbol may, so ``C/``, ``C//C`` and
``C(/)C`` are refused, as are a bond symbol before ``)`` (``C(C=)C``), an
empty branch (``C()C``) and an empty dot-separated component (``C..C``).

Each atom holds one hydrogen count, the bracket's for a bracket atom and
the valence model's otherwise, so ``[CH4]`` and ``C`` parse to equal
atoms; one parse shares a single :class:`Atom` record among its equal
atoms. :class:`Atom` is a slotted value and :class:`Bond` a slotted
record of three ints, ``Bond(a, b, order)``. A :class:`Molecule` computes
its topology on first read: the adjacency, and the ring bonds and ring
atoms as ``int`` bit sets (bit ``i`` set for bond or atom ``i`` on a
ring; :func:`bit_indices` lists them). Reading the adjacency stores the
ring bonds with it; reading the ring bits alone keeps no adjacency. Its
canonical SMILES is read the same way, but a molecule built in code
(:meth:`Molecule.assembled`) carries it from the start, so
:func:`canonical_smiles` on it computes nothing. :func:`validate` reads
the bond list, and the ring atoms only for an aromatic atom, so it
leaves no adjacency on any molecule.

Kekule-form rings that pass a Huckel electron count are normalized to
aromatic form at parse time, so alternative serializations of the same
aromatic system produce identical graphs. The ring search runs only
when atoms that could be aromatic close a ring cycle not yet aromatic.
An explicit ``:`` bond between atoms that are not both aromatic is kept,
written back as ``:``, and reported by :func:`validate`. An aromatic
bond between aromatic atoms outside any ring (``c1ccccc1:c1ccccc1``) is
written as ``:`` too: unmarked, it would read back as biphenyl's single
bond.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterator
from dataclasses import dataclass

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

# Bond orders. The numbers are also the bond's rank in canonical ranking
# and its code in the path and Morgan fingerprints.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

# SMILES bond symbol -> order.
BOND_ORDERS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
# What may stand where a bond symbol may: the bond symbols and the ``/``
# and ``\`` double-bond configuration marks, which set no order.
_BOND_SYMBOLS = frozenset((*BOND_ORDERS, "/", "\\"))
# Bond valence in half-units, indexed by order: an aromatic bond counts 1.5.
_ORDER_VALUE = (0, 2, 4, 6, 3)
# Integer bond contribution used by the valence check, indexed by order:
# an aromatic bond occupies one sigma slot.
_SIGMA_VALUE = (0, 1, 2, 3, 1)


class SmilesError(ValueError):
    """Syntax error in a SMILES string, tagged with the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Atom:
    """One atom of a molecular graph: a frozen, slotted value, which the
    equal atoms of one parse share.

    ``h_total`` is its one hydrogen count: the bracket's count for a
    bracket atom, the valence model's count for an organic-subset atom.
    Dummy atoms (``element == "*"``) carry the BRICS link label in
    ``link_label``.
    """

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    h_total: int = 0
    isotope: int | None = None
    link_label: int | None = None

    @property
    def is_dummy(self) -> bool:
        return self.element == DUMMY


@dataclass(frozen=True, slots=True)
class Bond:
    """Edge between atom indices ``a`` and ``b``, a slotted record of
    three ints. ``order`` is one of ``SINGLE``, ``DOUBLE``, ``TRIPLE``
    and ``AROMATIC`` (1 to 4); a ``/`` or ``\\`` written on the bond is
    not kept."""

    a: int
    b: int
    order: int = SINGLE

    def __init__(self, a: int, b: int, order: int = SINGLE) -> None:
        # Through the slots' own setters: the __init__ a frozen dataclass
        # generates calls object.__setattr__ per field, which makes
        # building a bond half as slow again.
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_ORDER(self, order)


_SET_A, _SET_B, _SET_ORDER = Bond.a.__set__, Bond.b.__set__, Bond.order.__set__


class _lazy:
    """A lazily computed attribute: the first read calls the method and
    stores the value on the instance, where later reads find it without
    reaching this descriptor. Unlike ``functools.cached_property`` on
    Python 3.11, it takes no lock, and it stores through
    ``object.__setattr__``, which keeps the values of the instance inline
    where writing into ``__dict__`` would build a dict (64 bytes more per
    molecule on CPython 3.11)."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = self.method(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    failures: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Molecule:
    """Immutable attributed molecular graph plus the text it came from.

    The other attributes are lazy (see :class:`_lazy`): each is computed
    on first read and kept on the instance."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source_text: str

    @classmethod
    def assembled(
        cls, atoms: tuple[Atom, ...], bonds: tuple[Bond, ...], canonical: str | None = None
    ) -> "Molecule":
        """A molecule built in code, whose ``source_text`` and
        :attr:`canonical` are its canonical SMILES. A caller that already
        holds that text for these atoms and bonds passes it as
        ``canonical``; otherwise it is written from a throw-away twin, so
        the result holds no topology computed on the way."""
        if canonical is None:
            canonical = canonical_smiles(cls(atoms, bonds, ""))
        mol = cls(atoms, bonds, canonical)
        object.__setattr__(mol, "canonical", canonical)
        return mol

    @_lazy
    def canonical(self) -> str:
        """The canonical SMILES of the atoms and bonds, written on first
        read; a molecule from :meth:`assembled` holds it from the start."""
        return write_smiles(self)

    @_lazy
    def neighbors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-atom tuple of (neighbor atom index, bond index). The
        :attr:`ring_bonds` are found over it and stored with it, so a
        molecule that reads both (a canonical write does) builds one
        adjacency, as a parse does."""
        neighbors = _adjacency(len(self.atoms), _ends(self.bonds))
        object.__setattr__(self, "ring_bonds", _ring_bits(len(self.bonds), neighbors))
        return neighbors

    @_lazy
    def ring_bonds(self) -> int:
        """Bit set of the bonds on at least one cycle: bit ``i`` is set
        when bond ``i`` is (read it with ``ring_bonds >> i & 1``). Unless
        :attr:`neighbors` stored it, it is found over a throw-away
        adjacency, so reading it, or the :attr:`ring_atoms`, leaves no
        :attr:`neighbors` on the molecule."""
        return _ring_bits(len(self.bonds), _adjacency(len(self.atoms), _ends(self.bonds)))

    @_lazy
    def ring_atoms(self) -> int:
        """Bit set of the atoms on at least one cycle, the ends of the
        :attr:`ring_bonds`."""
        bits = 0
        bonds = self.bonds
        for bi in bit_indices(self.ring_bonds):
            bond = bonds[bi]
            bits |= 1 << bond.a | 1 << bond.b
        return bits

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
        return _small_rings(self.neighbors, self.ring_bonds, _ends(self.bonds))

    @_lazy
    def atoms_by_kind(self) -> dict[tuple[str, bool], tuple[int, ...]]:
        """Ascending atom indices keyed by (element, aromatic); read-only."""
        index: dict[tuple[str, bool], list[int]] = {}
        for i, a in enumerate(self.atoms):
            index.setdefault((a.element, a.aromatic), []).append(i)
        return {kind: tuple(idx) for kind, idx in index.items()}

    @_lazy
    def kind_counts(self) -> dict[tuple, int]:
        """Atoms counted by (element, aromatic) kind, ring atoms by
        ``(kind, "@")`` and double and triple bonds by :func:`bond_kind`;
        read-only."""
        counts = {kind: len(idx) for kind, idx in self.atoms_by_kind.items()}
        atoms = self.atoms
        for i in bit_indices(self.ring_atoms):
            key = (atoms[i].element, atoms[i].aromatic), "@"
            counts[key] = counts.get(key, 0) + 1
        for b in self.bonds:
            if b.order in (DOUBLE, TRIPLE):
                x, y = atoms[b.a], atoms[b.b]
                key = bond_kind((x.element, x.aromatic), b.order, (y.element, y.aromatic))
                counts[key] = counts.get(key, 0) + 1
        return counts

    def degree(self, idx: int) -> int:
        return len(self.neighbors[idx])


def bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def atom_invariant(m: Molecule, i: int) -> tuple[int, ...]:
    """Atom ``i``'s (atomic number, aromatic, formal charge, isotope, link
    label, total hydrogens, degree): where canonical ranking starts and
    what the fingerprints hash."""
    a = m.atoms[i]
    return (ATOMIC_NUMBERS.get(a.element, 99), a.aromatic, a.formal_charge, a.isotope or 0,
            a.link_label or 0, a.h_total, len(m.neighbors[i]))


def bond_kind(a: tuple[str, bool], order: int, b: tuple[str, bool]) -> tuple:
    """Key of a bond of ``order`` between atoms of kinds ``a`` and ``b``
    (element, aromatic), the same from either end."""
    return (a, order, b) if a <= b else (b, order, a)


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


def _small_rings(neighbors, ring_bonds: int, ends) -> tuple[tuple[int, ...], ...]:
    """:attr:`Molecule.small_rings` from the adjacency, the ring-bond bit
    set and the (a, b) ends of each bond."""
    ring_adj = [[nb for nb in nbrs if ring_bonds >> nb[1] & 1] for nbrs in neighbors]
    rings: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for bi in bit_indices(ring_bonds):
        src, dst = ends[bi]
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


def _ends(bonds: tuple[Bond, ...]) -> list[tuple[int, int]]:
    """The (a, b) atom indices of each of ``bonds``."""
    return [(bond.a, bond.b) for bond in bonds]


def _adjacency(n: int, ends) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-atom (neighbour, bond index) tuples of ``n`` atoms and the (a, b) bond ends ``ends``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bi, (a, b) in enumerate(ends):
        adj[a].append((b, bi))
        adj[b].append((a, bi))
    return tuple(map(tuple, adj))


def _ring_bits(n_bonds: int, nbrs) -> int:
    """Bit set of the ``n_bonds`` bonds of adjacency ``nbrs`` that lie on
    a cycle: every bond but the bridges, those whose removal disconnects
    the graph (iterative DFS)."""
    n = len(nbrs)
    disc = [-1] * n
    low = [0] * n
    bridges = 0
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
                        bridges |= 1 << parent_bond
    return (1 << n_bonds) - 1 ^ bridges


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Unbracketed atom symbol -> (element, aromatic).
_ORGANIC = {
    **{el: (el, False) for el in (*ORGANIC_SUBSET, DUMMY)},
    **{sym: (sym.upper(), True) for sym in AROMATIC_ORGANIC},
}
# One SMILES token: a bracket atom, Cl or Br, a %nn ring closure, or any
# one character (so an unclosed "[" or a bare "%" is a token of its own).
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|%[0-9][0-9]|.", re.S)
# The inside of a bracket atom: isotope, symbol, chirality, hydrogen
# count, charge and an atom class; the chirality and class are discarded.
_BRACKET = re.compile(
    r"([0-9]*)(\*|[A-Z][a-z]?|se|as|[a-z])(?:@@?)?(H[0-9]*)?([+-][0-9]+|\++|-+)?(?::[0-9]+)?"
)


@dataclass
class _WorkAtom:
    element: str
    aromatic: bool = False
    charge: int = 0
    h_total: int = 0
    isotope: int | None = None
    link_label: int | None = None
    bracket: bool = False


def parse_charge(spelling: str) -> int:
    """Formal charge written as ``+``, ``++`` or ``+2`` (or with ``-``)."""
    digits = spelling.lstrip("+-")
    return (int(digits) if digits else len(spelling)) * (1 if spelling[0] == "+" else -1)


def _parse_bracket(body: str, offset: int) -> _WorkAtom:
    """Parse the inside of a bracket atom: isotope symbol chirality H
    charge class. The chirality (``@``, ``@@``) and the class are read and
    dropped; the H count is the atom's whole hydrogen count."""
    match = _BRACKET.fullmatch(body)
    if match is None:
        raise SmilesError(f"bad bracket atom [{body}]", offset)
    isotope, sym, hcount, charge = match.groups()
    aromatic = sym.islower()
    if aromatic:
        sym = sym.capitalize()
        if sym not in AROMATIC_ELEMENTS:
            raise SmilesError(f"element {sym.lower()!r} cannot be aromatic", offset)
    elif sym not in ATOMIC_WEIGHTS and sym != DUMMY:
        raise SmilesError(f"unknown element {sym!r}", offset)
    atom = _WorkAtom(
        element=sym, aromatic=aromatic,
        charge=parse_charge(charge) if charge else 0,
        h_total=int(hcount[1:] or 1) if hcount else 0,
        isotope=int(isotope) if isotope else None, bracket=True,
    )
    if sym == DUMMY and atom.isotope is not None:
        if not 1 <= atom.isotope <= 16:
            raise SmilesError(f"dummy link label {atom.isotope} outside 1..16", offset)
        atom.link_label, atom.isotope = atom.isotope, None
    return atom


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a Molecule.

    Raises SmilesError (with byte offset) on syntax problems: unmatched
    ring closures or brackets, unknown elements, misplaced bonds, an
    empty branch or dot-separated component. A ``/`` or ``\\`` mark is
    placed like a bond symbol but sets no order. Valence problems are not
    raised here; see :func:`validate`.
    """
    if not text:
        raise SmilesError("empty SMILES", 0)

    atoms: list[_WorkAtom] = []
    bonds: list[tuple[int, int, int | None]] = []  # a, b, order
    prev: int | None = None
    pending: str | None = None  # a bond symbol or mark not yet placed
    branch_stack: list[tuple[int, int]] = []  # (atom branched from, atoms before the branch)
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

    # Each token spans text[i : last + 1]; an error points at i or last.
    last = -1
    for tok in _TOKEN.findall(text):
        i = last + 1
        last += len(tok)
        ch = tok[0]
        if tok in _ORGANIC:
            new_atom = _WorkAtom(*_ORGANIC[tok])
        elif ch == "[":
            if tok == "[":
                raise SmilesError("unterminated bracket atom", i)
            new_atom = _parse_bracket(tok[1:-1], i)
        elif tok in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending = tok
            continue
        elif tok == "(":
            if prev is None:
                raise SmilesError("branch before any atom", i)
            branch_stack.append((prev, len(atoms)))
            continue
        elif tok == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if pending is not None:
                raise SmilesError("bond symbol before ')'", i)
            origin, before = branch_stack.pop()
            if len(atoms) == before:
                raise SmilesError("empty branch", i)
            if prev is None:
                raise SmilesError("empty component", i)
            prev = origin
            continue
        elif tok == ".":
            if pending is not None:
                raise SmilesError("bond symbol before '.'", i)
            if prev is None:
                raise SmilesError("empty component", i)
            prev = None
            continue
        elif ch in "%0123456789":
            if tok == "%":
                raise SmilesError("'%' needs two digits", i)
            num = int(tok.lstrip("%"))
            if prev is None:
                raise SmilesError("ring closure before any atom", last)
            order1 = BOND_ORDERS.get(pending)
            if num in ring_open:
                other, order0, _ = ring_open.pop(num)
                if order0 is not None and order1 is not None and order0 != order1:
                    raise SmilesError(f"conflicting orders on ring closure {num}", last)
                add_bond(other, prev, order0 if order1 is None else order1, last)
            else:
                ring_open[num] = (prev, order1, last)
            pending = None
            continue
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

        idx = len(atoms)
        atoms.append(new_atom)
        if prev is not None:
            add_bond(prev, idx, BOND_ORDERS.get(pending), last)
        elif pending is not None:
            raise SmilesError("dangling bond symbol", last)
        pending = None
        prev = idx

    if ring_open:
        num, (_, _, off) = min(ring_open.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {num}", off)
    if branch_stack:
        raise SmilesError("unmatched '('", last)
    if pending is not None:
        raise SmilesError("dangling bond symbol", last)
    if prev is None:
        raise SmilesError("empty component", last)

    return _assemble(atoms, bonds, text)


def _assemble(
    work: list[_WorkAtom],
    raw_bonds: list[tuple[int, int, int | None]],
    text: str,
) -> Molecule:
    """Resolve default bond orders, fill hydrogens, perceive aromatic rings."""
    ends = [(a, b) for a, b, _ in raw_bonds]
    neighbors = _adjacency(len(work), ends)
    ring = _ring_bits(len(ends), neighbors)
    orders: list[int] = []
    for bi, (a, b, order) in enumerate(raw_bonds):
        if order is None:
            # Aromatic on a ring only: biphenyl's inter-ring bond is single.
            order = AROMATIC if work[a].aromatic and work[b].aromatic and ring >> bi & 1 else SINGLE
        orders.append(order)

    adj = [[(j, orders[bi]) for j, bi in nbrs] for nbrs in neighbors]
    for w, bonded in zip(work, adj):
        if not (w.bracket or w.element == DUMMY):
            w.h_total = _default_hydrogens(w.element, w.aromatic, [o for _, o in bonded])

    if _may_aromatize(work, ends, orders, adj, ring):
        _perceive_aromatic(work, ends, orders, adj, _small_rings(neighbors, ring, ends))

    shared: dict[tuple, Atom] = {}  # equal atoms share one record
    atoms = []
    for w in work:
        key = (w.element, w.aromatic, w.charge, w.h_total, w.isotope, w.link_label)
        atom = shared.get(key)
        if atom is None:
            atom = shared[key] = Atom(*key)
        atoms.append(atom)
    bonds = tuple(Bond(a, b, order) for (a, b), order in zip(ends, orders))
    mol = Molecule(tuple(atoms), bonds, text)
    # Same bonds in the same order: the topology found above holds.
    object.__setattr__(mol, "neighbors", neighbors)
    object.__setattr__(mol, "ring_bonds", ring)
    return mol


def _default_hydrogens(element: str, aromatic: bool, orders: list[int]) -> int:
    """Implicit hydrogen count for an unbracketed atom in a bond context."""
    valences = allowed_valences(element, 0)
    if not valences:
        return 0
    if aromatic:
        # One sigma slot per bond plus one electron committed to the ring
        # pi system; lowest valence only (thiophene S gets no hydrogen).
        sigma = sum(map(_SIGMA_VALUE.__getitem__, orders))
        return max(0, valences[0] - (sigma + 1))
    # The bond valence rounded up, from half-units.
    total = (sum(map(_ORDER_VALUE.__getitem__, orders)) + 1) // 2
    for v in valences:
        if v >= total:
            return v - total
    return 0


# ---------------------------------------------------------------------------
# Aromaticity perception (Kekule -> aromatic normalization)
# ---------------------------------------------------------------------------

_INELIGIBLE = -1
_PI_ELEMENTS = frozenset(("C", "N", "O", "S", "P", "B"))
_AROMATIC_PI = {"C": 1, "O": 2, "S": 2, "B": 0}  # an aromatic N or P gives 1 or 2


def _never_pi(w: _WorkAtom, bonded) -> bool:
    """Whether atom ``w``, with (neighbour, order) pairs ``bonded``, is
    :data:`_INELIGIBLE` for every ring: an element outside C N O S P B,
    or a non-aromatic atom that is charged, has a triple bond, or is a
    carbon without a double bond."""
    if w.element not in _PI_ELEMENTS:
        return True
    if w.aromatic:
        return False
    if w.charge:
        return True
    orders = [o for _, o in bonded]
    return TRIPLE in orders or (w.element == "C" and DOUBLE not in orders)


def _pi_contribution(i: int, work: list[_WorkAtom], adj, cluster: set[int]) -> int:
    """Pi electrons atom i donates to an aromatic system, or _INELIGIBLE."""
    w = work[i]
    if _never_pi(w, adj[i]):
        return _INELIGIBLE
    el = w.element
    if w.aromatic:
        if el in _AROMATIC_PI:
            return _AROMATIC_PI[el]
        # N/P: three sigma partners (bonds + H) means the lone pair is in the ring
        return 2 if (len(adj[i]) + w.h_total) >= 3 else 1
    doubles_in = doubles_out = 0
    for j, o in adj[i]:
        if o == DOUBLE:
            if j in cluster:
                doubles_in += 1
            else:
                doubles_out += 1
    if doubles_in > 1:
        return _INELIGIBLE
    if doubles_in == 1:
        return 1
    if doubles_out:
        # Exocyclic double bond: carbon contributes an empty-ish orbital.
        return 0 if el in ("C", "S") else _INELIGIBLE
    return 0 if el == "B" else 2  # N P O S lone pair (a carbon has a double bond)


def _may_aromatize(work, ends, orders, adj, ring: int) -> bool:
    """Whether :func:`_perceive_aromatic` can change anything. Each ring
    it aromatizes avoids the :func:`_never_pi` atoms, which it never
    changes, so it cannot when the ring bonds (the bit set ``ring``)
    between the other atoms close no cycle (a union-find pass) or are all
    aromatic between aromatic atoms."""
    ring_bonds = list(bit_indices(ring))
    eligible = {x for bi in ring_bonds for x in ends[bi]}
    eligible = {x for x in eligible if not _never_pi(work[x], adj[x])}
    root = list(range(len(work)))
    cycle = kekule = False
    for bi in ring_bonds:
        a, b = ends[bi]
        if a not in eligible or b not in eligible:
            continue
        kekule = kekule or not (orders[bi] == AROMATIC and work[a].aromatic and work[b].aromatic)
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        cycle = cycle or a == b
        root[a] = b
        if cycle and kekule:
            return True
    return False


def _perceive_aromatic(work, ends, orders, adj, rings) -> None:
    """Upgrade Huckel-count rings written in Kekule form to aromatic.

    ``adj`` holds each atom's (neighbour, order) pairs under ``orders``,
    and ``rings`` is the graph's :attr:`Molecule.small_rings`."""
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
        contribs = [_pi_contribution(a, work, adj, atom_set) for a in atom_set]
        if _INELIGIBLE in contribs or sum(contribs) % 4 != 2:
            return False
        for a in atom_set:
            work[a].aromatic = True
        ring_bond_pairs = set()
        for r in ring_group:
            for x in range(len(r)):
                ring_bond_pairs.add(frozenset((r[x], r[(x + 1) % len(r)])))
        for bi, (a, b) in enumerate(ends):
            if frozenset((a, b)) in ring_bond_pairs and orders[bi] in (SINGLE, DOUBLE):
                orders[bi] = AROMATIC
        return True

    for group in clusters:
        if not group:
            continue
        if not try_aromatize(group):
            for ring in group:
                try_aromatize([ring])


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
    sigma = sigma_valences(m)
    for i, atom in enumerate(m.atoms):
        if atom.is_dummy:
            continue
        if atom.aromatic and not m.ring_atoms >> i & 1:
            failures.append((i, "aromatic atom outside any ring"))
        valences = allowed_valences(atom.element, atom.formal_charge)
        if valences is None:
            continue
        total = sigma[i] + atom.h_total
        if total > max(valences):
            failures.append(
                (i, f"{atom.element} valence {total} exceeds {max(valences)}")
            )
    for bond in m.bonds:
        if bond.order == AROMATIC and not (m.atoms[bond.a].aromatic and m.atoms[bond.b].aromatic):
            failures.append((bond.a, "aromatic bond between non-aromatic atoms"))
    return ValidityReport(valid=not failures, failures=tuple(failures))


def sigma_valences(m: Molecule) -> list[int]:
    """Valence each atom spends on its bonds, an aromatic bond taking one
    sigma slot: one pass over the bond list, so ``m``'s adjacency stays
    unbuilt."""
    sigma = [0] * len(m.atoms)
    for bond in m.bonds:
        value = _SIGMA_VALUE[bond.order]
        sigma[bond.a] += value
        sigma[bond.b] += value
    return sigma


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

def _component_ranks(m: Molecule, comp: tuple[int, ...], *, break_ties: bool) -> dict[int, int]:
    """Rank the atoms of one connected component (atom index -> rank).

    Atoms are first split by their invariants (:func:`atom_invariant`,
    sorted bond ranks, in a ring) into ordered cells of positions in
    ``comp``; an atom's rank is the position its cell starts at. Unless
    that partition is already discrete, each round then splits every cell
    next to one that split in the round before (no other cell can split)
    by its members' sorted (bond rank, neighbour rank) multisets, the
    parts taking its place in ascending order. ``break_ties`` then moves
    the lowest atom index of the first tied cell to its front and refines
    again, until every atom has its own rank. The result numbers the cells
    densely.
    """
    n = len(comp)
    nbrs, ring_atoms = m.neighbors, m.ring_atoms
    # A component holding every atom is (0, ..., n - 1): range(n) maps it.
    local = range(n) if n == len(m.atoms) else {a: k for k, a in enumerate(comp)}
    bond_rank = [b.order for b in m.bonds]
    # (bond rank * n, neighbour); bond rank * n + neighbour rank sorts as
    # the (bond rank, neighbour rank) pair does.
    adj = [[(bond_rank[bi] * n, local[j]) for j, bi in nbrs[i]] for i in comp]
    # The invariants are tuples of one length, so (invariant, orders, in a
    # ring) sorts as the flat tuple of their fields does.
    keyed = sorted([
        ((atom_invariant(m, i), sorted([bond_rank[bi] for _, bi in nbrs[i]]), ring_atoms >> i & 1), k)
        for k, i in enumerate(comp)
    ])
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
    h = a.h_total
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
    if bond.order == DOUBLE:
        return "="
    if bond.order == TRIPLE:
        return "#"
    both_aromatic = m.atoms[bond.a].aromatic and m.atoms[bond.b].aromatic
    in_ring = both_aromatic and m.ring_bonds >> bi & 1
    if bond.order == SINGLE:
        return "-" if in_ring else ""
    # Outside a ring an unmarked bond re-parses as single (biphenyl).
    return "" if in_ring else ":"


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
    re-parses to an isomorphic graph. The text is ``m``'s
    :attr:`Molecule.canonical`, which a molecule built in code already
    holds, so reading it there writes nothing and caches no topology.
    """
    return m.canonical


def randomized_smiles(m: Molecule, seed: int) -> str:
    """An equivalent SMILES with randomized atom order, for robustness tests."""
    return write_smiles(m, rng=random.Random(seed))
