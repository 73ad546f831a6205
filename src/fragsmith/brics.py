"""Retrosynthetic bond detection and adaptive fragmentation.

Cleavable bonds are single acyclic bonds whose endpoints match a
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
from dataclasses import dataclass, replace
from importlib import resources

from .molgraph import (
    SINGLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    connected_components,
    validate,
)
from .patterns import Pattern, compile_pattern, match_at

DUMMY_LABEL_RANGE = range(1, 17)


class RuleTableError(ValueError):
    """The rule table file is malformed or inconsistent."""


class FragmentationError(ValueError):
    """The molecule cannot be fragmented (invalid, disconnected, dummies)."""


@dataclass(frozen=True)
class BricsRule:
    label: int
    pattern: Pattern
    partners: tuple[int, ...]
    bond_kind: str


@dataclass(frozen=True)
class BricsBond:
    """A cleavable bond and the link labels of its two sides.

    ``labels`` is oriented like ``Molecule.bonds[bond_index].endpoints``:
    labels[0] classifies endpoints[0].
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
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
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
    seed: int | None = None


_RULES_CACHE: dict[str, tuple[BricsRule, ...]] = {}


def load_rules(path: str | None = None) -> tuple[BricsRule, ...]:
    """Load (and cache) the link-environment rule table."""
    key = path or "<default>"
    if key in _RULES_CACHE:
        return _RULES_CACHE[key]
    if path is None:
        text = resources.files("fragsmith.data").joinpath("brics_rules.txt").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    rules: dict[int, BricsRule] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise RuleTableError(f"line {lineno}: expected 3 or 4 columns")
        label = int(parts[0])
        if label not in DUMMY_LABEL_RANGE:
            raise RuleTableError(f"line {lineno}: label {label} outside 1..16")
        if label in rules:
            raise RuleTableError(f"line {lineno}: duplicate label {label}")
        partners = tuple(int(p) for p in parts[2].split(","))
        bond_kind = parts[3] if len(parts) == 4 else SINGLE
        rules[label] = BricsRule(
            label=label,
            pattern=compile_pattern(parts[1]),
            partners=partners,
            bond_kind=bond_kind,
        )
    for rule in rules.values():
        for p in rule.partners:
            if p not in rules or rule.label not in rules[p].partners:
                raise RuleTableError(
                    f"asymmetric pair ({rule.label}, {p}) in rule table"
                )
    table = tuple(rules[label] for label in sorted(rules))
    _RULES_CACHE[key] = table
    return table


def max_fragments(length: int, k: int, alpha: float) -> int:
    """Adaptive cap on the number of fragments for a SMILES of ``length``.

    Below the library average ``k`` the cap is the length itself;
    otherwise ceil(length/k) is raised to ``alpha`` and rounded up,
    clamped to the length. Raises ValueError on non-positive inputs.
    """
    if length < 1 or k < 1 or alpha <= 0:
        raise ValueError("length, k must be >= 1 and alpha > 0")
    if length < k:
        return length
    chunks = math.ceil(length / k)
    return min(length, math.ceil(chunks**alpha))


# id(rules) -> (rules, pairs, rules by atom kind, unpinned rules); holding
# the table keeps its id unique.
_INDEX_CACHE: dict[int, tuple] = {}


def _rule_index(rules: tuple[BricsRule, ...]) -> tuple:
    """The table's single-bond (label, partner) pairs in preference order;
    per (element, aromatic) kind, the rules whose pattern root is pinned
    to it plus the unpinned ones; and the unpinned ones alone, for every
    other kind. A label in no single-bond pair never decides a cut, so
    its rule is left out."""
    hit = _INDEX_CACHE.get(id(rules))
    if hit is None:
        pairs = tuple(sorted(
            (rule.label, p)
            for rule in rules
            if rule.bond_kind == SINGLE
            for p in rule.partners
            if p >= rule.label
        ))
        used = [r for r in rules if any(r.label in pair for pair in pairs)]
        unpinned = tuple(r for r in used if r.pattern.root_element is None)
        by_kind: dict[tuple[str, bool], tuple[BricsRule, ...]] = {}
        for r in used:
            if r.pattern.root_element is not None:
                kind = (r.pattern.root_element, r.pattern.root_aromatic)
                by_kind[kind] = by_kind.get(kind, unpinned) + (r,)
        hit = _INDEX_CACHE[id(rules)] = (rules, pairs, by_kind, unpinned)
    return hit[1:]


def find_brics_bonds(
    m: Molecule, rules: tuple[BricsRule, ...] | None = None
) -> list[BricsBond]:
    """Every cleavable bond of ``m`` in bond-index order.

    A bond qualifies when it is single, acyclic, and its endpoint
    environments form a permitted pair. When several pairs apply, the
    lowest (label, partner) pair in the table wins. Only the endpoints of
    single acyclic bonds are labelled, each once and only against the
    rules that can match it: those whose pattern root is pinned to the
    atom's (element, aromatic) kind or not pinned at all, and whose label
    appears in some single-bond pair. Molecules that already contain
    dummy atoms are rejected.
    """
    if any(a.is_dummy for a in m.atoms):
        raise FragmentationError("molecule already contains dummy atoms")
    if rules is None:
        rules = load_rules()
    pairs, by_kind, unpinned = _rule_index(rules)
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
        if bond.order != SINGLE or bi in ring_bonds:
            continue
        a, b = bond.endpoints
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


def fragment(
    m: Molecule,
    params: FragmentParams,
    rules: tuple[BricsRule, ...] | None = None,
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
    cap = max_fragments(len(m.source_text), params.k, params.alpha)
    n_cuts = min(len(eligible), cap - 1)
    if n_cuts < len(eligible):
        rng = random.Random(f"{params.seed}|{m.source_text}")
        chosen_idx = sorted(rng.sample(range(len(eligible)), n_cuts))
        chosen = [eligible[i] for i in chosen_idx]
    else:
        chosen = list(eligible)

    return cut_bonds(m, chosen, seed=params.seed)


def cut_bonds(
    m: Molecule, chosen: list[BricsBond], seed: int | None = None
) -> FragmentSet:
    """Cut an explicit list of bonds, inserting labeled dummies per side."""
    parent = canonical_smiles(m)
    if not chosen:
        return FragmentSet(
            fragments=(replace(m, source_text=parent),),
            parent_canonical=parent,
            cleaved=(),
            provenance=(),
            seed=seed,
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
        a, b = bond.endpoints
        frag_bonds[comp_of[a]].append(
            Bond(
                endpoints=(local_idx[a], local_idx[b]),
                order=bond.order,
                stereo_annotation=bond.stereo_annotation,
            )
        )

    provenance: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for bb in chosen:
        a, b = m.bonds[bb.bond_index].endpoints
        sites = []
        for end, label in zip((a, b), bb.labels):
            c = comp_of[end]
            dummy_idx = len(frag_atoms[c])
            frag_atoms[c].append(Atom(element="*", link_label=label))
            frag_bonds[c].append(
                Bond(endpoints=(local_idx[end], dummy_idx), order=SINGLE)
            )
            sites.append((c, dummy_idx))
        provenance.append((sites[0], sites[1]))

    fragments = []
    for c in range(len(comps)):
        frag = Molecule(
            atoms=tuple(frag_atoms[c]), bonds=tuple(frag_bonds[c]), source_text=""
        )
        fragments.append(replace(frag, source_text=canonical_smiles(frag)))

    return FragmentSet(
        fragments=tuple(fragments),
        parent_canonical=parent,
        cleaved=tuple(chosen),
        provenance=tuple(provenance),
        seed=seed,
    )
