"""Reassemble fragment sets into molecules.

Two modes are exposed:

* :func:`rejoin` reconnects complementary dummy-atom pairs and restores
  the parent molecule exactly (up to canonicalization). With cut
  provenance the pairing is unambiguous; without it, labels are paired
  greedily against the rule table's permitted pairs, erroring when a
  choice between non-equivalent partners exists.
* :func:`carbon_cap` replaces every dummy atom by a carbon in place, the
  cheap normalization that keeps fragment strings valid on their own.
"""

from __future__ import annotations

from .brics import FragmentSet, RuleTable, default_rules
from .molgraph import (
    SINGLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    sigma_valences,
    symmetry_classes,
)


class UnpairedLabelError(ValueError):
    """Dummy-atom labels cannot be paired up consistently."""


class AmbiguousRejoinError(ValueError):
    """Several structurally different pairings are possible and no
    provenance disambiguates them."""


def _splice(fragments: tuple[Molecule, ...], pairs) -> Molecule:
    """Drop each paired dummy, bond the two heavy atoms it stood for, and
    number the kept atoms in fragment order. ``pairs`` holds two
    (fragment, atom) sites per pair."""
    first = [0]  # each fragment's first index in the merged numbering
    for frag in fragments:
        first.append(first[-1] + len(frag.atoms))
    dummies: set[int] = set()
    links: list[list[int]] = []
    for pair in pairs:
        ends = []
        for fi, li in pair:
            # The dummy's partners, read from the bond list so the
            # fragment's adjacency stays unbuilt.
            bonded = [bond.b if bond.a == li else bond.a
                      for bond in fragments[fi].bonds if bond.a == li or bond.b == li]
            if len(bonded) != 1:
                raise UnpairedLabelError(
                    f"dummy atom must have exactly one bond, found {len(bonded)}"
                )
            if fragments[fi].atoms[bonded[0]].is_dummy:
                raise UnpairedLabelError("dummy atom bonded to another dummy atom")
            dummies.add(first[fi] + li)
            ends.append(first[fi] + bonded[0])
        links.append(ends)

    index: list[int] = []  # merged index -> kept index
    atoms: list[Atom] = []
    for i, atom in enumerate(a for frag in fragments for a in frag.atoms):
        index.append(len(atoms))
        if i not in dummies:
            atoms.append(atom)
    bonds: list[Bond] = []
    for base, frag in zip(first, fragments):
        for bond in frag.bonds:
            a, b = base + bond.a, base + bond.b
            if a not in dummies and b not in dummies:
                bonds.append(Bond(index[a], index[b], bond.order))
    bonds.extend(Bond(index[a], index[b], SINGLE) for a, b in links)
    return Molecule.assembled(tuple(atoms), tuple(bonds))


def rejoin(fs: FragmentSet, rules: RuleTable | None = None) -> Molecule:
    """Reconnect a fragment set into its parent molecule.

    With provenance the recorded dummy pairs are spliced directly.
    Without it, pairing falls back to :func:`pair_by_labels` under
    ``rules`` (default: the shipped rule table).
    """
    if len(fs.fragments) == 1 and not fs.cleaved:
        return fs.fragments[0]
    if fs.provenance is not None:
        return _splice(fs.fragments, fs.provenance)
    return _splice(fs.fragments, pair_by_labels(fs.fragments, rules))


def pair_by_labels(
    fragments: tuple[Molecule, ...],
    rules: RuleTable | None = None,
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pair complementary dummy atoms across fragments by link labels.

    Candidates are permitted (label, partner) pairs from ``rules``, the
    table the fragments were cut under (default: the shipped one).
    Pairing is greedy over dummies in fragment order; when one dummy has
    several compatible counterparts that are not symmetry-equivalent, an
    AmbiguousRejoinError is raised. Leftover or impossible labels raise
    UnpairedLabelError.
    """
    partners = (default_rules() if rules is None else rules).partners
    dummies: list[tuple[int, int, int]] = []  # (frag, atom, label)
    for fi, frag in enumerate(fragments):
        for ai, atom in enumerate(frag.atoms):
            if atom.is_dummy:
                if atom.link_label is None:
                    raise UnpairedLabelError("dummy atom without link label")
                dummies.append((fi, ai, atom.link_label))

    if len(dummies) % 2:
        raise UnpairedLabelError("odd number of dummy atoms")

    # Equivalence fingerprint: two candidate dummies are interchangeable
    # when their fragments canonicalize identically and the dummies sit in
    # the same symmetry class of that fragment.
    sym: dict[int, dict[int, int]] = {}
    canon: dict[int, str] = {}
    for fi, frag in enumerate(fragments):
        sym[fi] = symmetry_classes(frag)
        canon[fi] = canonical_smiles(frag)

    def compatible(la: int, lb: int) -> bool:
        return lb in partners.get(la, ()) or la in partners.get(lb, ())

    # Most-constrained-first: repeatedly resolve a dummy whose compatible
    # counterparts are all symmetry-equivalent, so the greedy choice can
    # never change the assembled molecule.
    open_dummies = list(dummies)
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    while open_dummies:
        resolved = None
        for d in open_dummies:
            fi, ai, label = d
            candidates = [
                (fj, aj, lj)
                for (fj, aj, lj) in open_dummies
                if fj != fi and compatible(label, lj)
            ]
            if not candidates:
                raise UnpairedLabelError(
                    f"no compatible partner for dummy label {label} in fragment {fi}"
                )
            signatures = {(canon[fj], sym[fj][aj], lj) for fj, aj, lj in candidates}
            if len(signatures) == 1:
                resolved = (d, candidates[0])
                break
        if resolved is None:
            raise AmbiguousRejoinError(
                "multiple non-equivalent pairings exist and no provenance "
                "disambiguates them"
            )
        d, chosen = resolved
        open_dummies.remove(d)
        open_dummies.remove(chosen)
        pairs.append(((d[0], d[1]), (chosen[0], chosen[1])))
    return pairs


# The capping carbon with each hydrogen count from 0 to 4, shared by
# every capped fragment.
_CAP_CARBONS = tuple(Atom("C", h_total=h) for h in range(5))


def carbon_cap(f: Molecule) -> Molecule:
    """Replace every dummy atom by a carbon atom in place.

    Bonds are kept; each substituted carbon gets the hydrogen count that
    completes its valence and is the :data:`_CAP_CARBONS` record with that
    count. Fragments without dummies come back unchanged.
    """
    if not any(a.is_dummy for a in f.atoms):
        return f
    sigma = sigma_valences(f)
    atoms = tuple(
        _CAP_CARBONS[max(0, 4 - sigma[i])] if atom.is_dummy else atom
        for i, atom in enumerate(f.atoms)
    )
    return Molecule.assembled(atoms, f.bonds)
