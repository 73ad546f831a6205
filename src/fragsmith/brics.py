"""Retrosynthetic bond detection and adaptive fragmentation.

Cleavable bonds are single acyclic bonds whose two end atoms match a
permitted pair of link environments from the shipped rule table
(``data/brics_rules.txt``). Fragmentation caps the fragment count by the
adaptive limit computed from the SMILES length, the library's average
SMILES length ``k``, and the elasticity factor ``alpha``:

    cap(L) = L                           when L < k
    cap(L) = min(L, ceil(ceil(L/k) ** alpha))   otherwise
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache

from .config import read_data_lines
from .molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    connected_components,
    validate,
)
from .patterns import Pattern, PatternError, compile_pattern, match_at

DUMMY_LABEL_RANGE = range(1, 17)
# The dummy atom carrying each link label, shared by every cut fragment.
_DUMMY_ATOMS = {label: Atom("*", link_label=label) for label in DUMMY_LABEL_RANGE}
# The rule table's bond column -> bond order.
_BOND_KINDS = {"single": SINGLE, "double": DOUBLE, "triple": TRIPLE, "aromatic": AROMATIC}


class RuleTableError(ValueError):
    """The rule table file is malformed or inconsistent."""


class FragmentationError(ValueError):
    """The molecule cannot be fragmented (invalid, disconnected, dummies)."""


@dataclass(frozen=True)
class BricsRule:
    label: int
    pattern: Pattern
    partners: tuple[int, ...]
    bond_kind: int  # the bond order the pairs are defined over


@dataclass(frozen=True, slots=True)
class BricsBond:
    """A cleavable bond and the link labels of its two sides.

    ``labels`` is oriented like ``bond = Molecule.bonds[bond_index]``:
    labels[0] classifies ``bond.a`` and labels[1] ``bond.b``.
    """

    bond_index: int
    labels: tuple[int, int]


@dataclass(frozen=True)
class FragmentParams:
    """Adaptive fragmentation knobs: k is the library's average SMILES
    length, alpha the elasticity factor, seed drives cut selection when
    the cap forces a choice."""

    k: int
    alpha: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True, slots=True)
class FragmentSet:
    """Fragments of one parent molecule plus cut provenance.

    ``provenance`` aligns with ``cleaved``: for each cut bond it records
    ((fragment index, dummy atom index), (fragment index, dummy atom
    index)) for the two dummy atoms that cut introduced. It is None for
    fragment sets assembled from external sources.
    """

    fragments: tuple[Molecule, ...]
    parent_canonical: str
    cleaved: tuple[BricsBond, ...]
    provenance: tuple[tuple[tuple[int, int], tuple[int, int]], ...] | None = None


@dataclass(frozen=True)
class RuleTable:
    """A link-environment rule table and the index built from it once.

    ``pairs`` are the single-bond (label, partner) pairs in preference
    order. ``by_kind`` maps an (element, aromatic) atom kind to the rules
    whose pattern root is pinned to it plus the unpinned ones;
    ``unpinned`` holds the unpinned ones alone, for every other kind. A
    label in no single-bond pair never decides a cut, so its rule is in
    neither. ``partners`` maps each label to its permitted partners.
    """

    rules: tuple[BricsRule, ...]
    pairs: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    by_kind: dict[tuple[str, bool], tuple[BricsRule, ...]] = field(init=False, compare=False)
    unpinned: tuple[BricsRule, ...] = field(init=False, compare=False)
    partners: dict[int, tuple[int, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        pairs = tuple(sorted(
            (rule.label, p)
            for rule in self.rules
            if rule.bond_kind == SINGLE
            for p in rule.partners
            if p >= rule.label
        ))
        used = [r for r in self.rules if any(r.label in pair for pair in pairs)]
        unpinned = tuple(r for r in used if r.pattern.root_kind is None)
        by_kind: dict[tuple[str, bool], tuple[BricsRule, ...]] = {}
        for r in used:
            kind = r.pattern.root_kind
            if kind is not None:
                by_kind[kind] = by_kind.get(kind, unpinned) + (r,)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "by_kind", by_kind)
        object.__setattr__(self, "unpinned", unpinned)
        object.__setattr__(self, "partners", {r.label: r.partners for r in self.rules})


def load_rules(path: str | None = None) -> RuleTable:
    """Read the link-environment rule table at ``path`` (default: the
    shipped one). The file is read on every call; a malformed row raises
    RuleTableError naming ``PATH:LINE``."""
    rules: dict[int, BricsRule] = {}
    where_of: dict[int, str] = {}
    for where, line in read_data_lines(path, "brics_rules.txt"):
        parts = line.strip().split("\t")
        if len(parts) not in (3, 4):
            raise RuleTableError(f"{where}: expected 3 or 4 columns")
        try:
            label = int(parts[0])
        except ValueError:
            raise RuleTableError(f"{where}: label {parts[0]!r} is not an integer") from None
        if label not in DUMMY_LABEL_RANGE:
            raise RuleTableError(f"{where}: label {label} outside 1..16")
        if label in rules:
            raise RuleTableError(f"{where}: duplicate label {label}")
        try:
            partners = tuple(int(p) for p in parts[2].split(","))
        except ValueError:
            raise RuleTableError(f"{where}: partners {parts[2]!r} are not integers") from None
        bond_kind = _BOND_KINDS.get(parts[3]) if len(parts) == 4 else SINGLE
        if bond_kind is None:
            raise RuleTableError(f"{where}: unknown bond kind {parts[3]!r}")
        try:
            pattern = compile_pattern(parts[1])
        except PatternError as exc:
            raise RuleTableError(f"{where}: pattern {parts[1]!r}: {exc}") from None
        rules[label] = BricsRule(
            label=label, pattern=pattern, partners=partners, bond_kind=bond_kind
        )
        where_of[label] = where
    for rule in rules.values():
        for p in rule.partners:
            if p not in rules or rule.label not in rules[p].partners:
                raise RuleTableError(
                    f"{where_of[rule.label]}: asymmetric pair ({rule.label}, {p})"
                )
    return RuleTable(tuple(rules[label] for label in sorted(rules)))


@cache
def default_rules() -> RuleTable:
    """The shipped rule table, read once per process."""
    return load_rules()


def max_fragments(length: int, k: int, alpha: float) -> int:
    """Adaptive cap on the number of fragments for a SMILES of ``length``.

    Below the library average ``k`` the cap is the length itself;
    otherwise ceil(length/k) is raised to ``alpha`` and rounded up,
    clamped to the length (also when the power overflows a float).
    Raises ValueError on non-positive inputs and a NaN ``alpha``.
    """
    if length < 1 or k < 1 or not alpha > 0:
        raise ValueError("length, k must be >= 1 and alpha > 0")
    if length < k:
        return length
    try:
        return min(length, math.ceil(math.ceil(length / k) ** alpha))
    except OverflowError:
        return length


def find_brics_bonds(m: Molecule, rules: RuleTable | None = None) -> list[BricsBond]:
    """Every cleavable bond of ``m`` in bond-index order.

    A bond qualifies when it is single, acyclic, and its endpoint
    environments form a permitted pair. When several pairs apply, the
    lowest (label, partner) pair in the table wins. Only the end atoms of
    single acyclic bonds are labelled, each once and only against the
    rules that can match it: those whose pattern root is pinned to the
    atom's (element, aromatic) kind or not pinned at all, and whose label
    appears in some single-bond pair. Molecules that already contain
    dummy atoms are rejected.
    """
    if any(a.is_dummy for a in m.atoms):
        raise FragmentationError("molecule already contains dummy atoms")
    table = default_rules() if rules is None else rules
    pairs, by_kind, unpinned = table.pairs, table.by_kind, table.unpinned
    labels: dict[int, set[int]] = {}

    def labels_of(i: int) -> set[int]:
        found = labels.get(i)
        if found is None:
            a = m.atoms[i]
            candidates = by_kind.get((a.element, a.aromatic), unpinned)
            found = labels[i] = {r.label for r in candidates if match_at(r.pattern, m, i)}
        return found

    out: list[BricsBond] = []
    ring_bonds = m.ring_bonds
    for bi, bond in enumerate(m.bonds):
        if bond.order != SINGLE or ring_bonds >> bi & 1:
            continue
        a, b = bond.a, bond.b
        la_set = labels_of(a)
        if not la_set:
            continue
        lb_set = labels_of(b)
        if not lb_set:
            continue
        for la, lb in pairs:
            if la in la_set and lb in lb_set:
                out.append(BricsBond(bond_index=bi, labels=(la, lb)))
                break
            if lb in la_set and la in lb_set:
                out.append(BricsBond(bond_index=bi, labels=(lb, la)))
                break
    return out


def fragment_cap(m: Molecule, params: FragmentParams) -> int:
    """The cap :func:`fragment` puts on ``m``, from its source text's length."""
    return max_fragments(len(m.source_text), params.k, params.alpha)


def fragment(
    m: Molecule,
    params: FragmentParams,
    rules: RuleTable | None = None,
) -> FragmentSet:
    """Cut a cap-compliant subset of the cleavable bonds of ``m``.

    Each cut adds one dummy atom per side carrying that side's link
    label. When the eligible bonds would exceed the cap, a seeded uniform
    subset is chosen (seeded by params.seed and the source text, so
    identical inputs always give identical fragment sets). A molecule
    with no cleavable bond comes back as a single-fragment set.
    """
    report = validate(m)
    if not report.valid:
        raise FragmentationError(f"invalid molecule: {report.failures[0][1]}")
    if not m.connected:
        raise FragmentationError("molecule is disconnected")

    eligible = find_brics_bonds(m, rules)
    cap = fragment_cap(m, params)
    n_cuts = min(len(eligible), cap - 1)
    if n_cuts < len(eligible):
        rng = random.Random(f"{params.seed}|{m.source_text}")
        chosen_idx = sorted(rng.sample(range(len(eligible)), n_cuts))
        chosen = [eligible[i] for i in chosen_idx]
    else:
        chosen = list(eligible)

    return cut_bonds(m, chosen)


def cut_bonds(m: Molecule, chosen: list[BricsBond]) -> FragmentSet:
    """Cut an explicit list of bonds, inserting per side the shared dummy of its label."""
    parent = canonical_smiles(m)
    if not chosen:
        return FragmentSet(
            fragments=(Molecule.assembled(m.atoms, m.bonds, parent),),
            parent_canonical=parent,
            cleaved=(),
            provenance=(),
        )

    cut_ids = {bb.bond_index for bb in chosen}
    comps = connected_components(m, cut_ids)
    comp_of = {i: c for c, comp in enumerate(comps) for i in comp}

    frag_atoms: list[list[Atom]] = [[] for _ in comps]
    frag_bonds: list[list[Bond]] = [[] for _ in comps]
    local_idx: dict[int, int] = {}
    for i, atom in enumerate(m.atoms):
        c = comp_of[i]
        local_idx[i] = len(frag_atoms[c])
        frag_atoms[c].append(atom)
    for bi, bond in enumerate(m.bonds):
        if bi in cut_ids:
            continue
        frag_bonds[comp_of[bond.a]].append(Bond(local_idx[bond.a], local_idx[bond.b], bond.order))

    provenance: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for bb in chosen:
        bond = m.bonds[bb.bond_index]
        sites = []
        for end, label in zip((bond.a, bond.b), bb.labels):
            c = comp_of[end]
            dummy_idx = len(frag_atoms[c])
            frag_atoms[c].append(_DUMMY_ATOMS[label])
            frag_bonds[c].append(Bond(local_idx[end], dummy_idx, SINGLE))
            sites.append((c, dummy_idx))
        provenance.append((sites[0], sites[1]))

    return FragmentSet(
        fragments=tuple(
            Molecule.assembled(tuple(atoms), tuple(bonds))
            for atoms, bonds in zip(frag_atoms, frag_bonds)
        ),
        parent_canonical=parent,
        cleaved=tuple(chosen),
        provenance=tuple(provenance),
    )
