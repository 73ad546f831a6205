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
    sigma_valence,
    symmetry_classes,
)


class UnpairedLabelError(ValueError):
    """Dummy-atom labels cannot be paired up consistently."""


class AmbiguousRejoinError(ValueError):
    """Several structurally different pairings are possible and no
    provenance disambiguates them."""


def _merge(
    fragments: tuple[Molecule, ...],
) -> tuple[list[Atom], list[tuple[int, int, Bond]], dict]:
    """Concatenate fragment graphs; returns the atoms, each bond as (merged
    endpoint, merged endpoint, fragment bond), and the index mapping
    (frag_idx, local_idx) -> merged index."""
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, Bond]] = []
    offset: dict = {}
    for fi, frag in enumerate(fragments):
        base = len(atoms)
        for li, atom in enumerate(frag.atoms):
            offset[(fi, li)] = base + li
        atoms.extend(frag.atoms)
        for bond in frag.bonds:
            a, b = bond.endpoints
            bonds.append((base + a, base + b, bond))
    return atoms, bonds, offset


def _splice(atoms: list[Atom], bonds: list[tuple[int, int, Bond]], dummy_pairs) -> Molecule:
    """Drop paired dummies, bond their heavy neighbors, compact indices."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for bi, (a, b, _) in enumerate(bonds):
        adjacency.setdefault(a, []).append((b, bi))
        adjacency.setdefault(b, []).append((a, bi))

    drop_atoms: set[int] = set()
    drop_bonds: set[int] = set()
    new_bonds: list[tuple[int, int]] = []
    for da, db in dummy_pairs:
        heavies = []
        for d in (da, db):
            links = adjacency.get(d, [])
            if len(links) != 1:
                raise UnpairedLabelError(
                    f"dummy atom must have exactly one bond, found {len(links)}"
                )
            heavies.append(links[0][0])
            drop_bonds.add(links[0][1])
            drop_atoms.add(d)
        new_bonds.append((heavies[0], heavies[1]))

    remap: dict[int, int] = {}
    kept_atoms: list[Atom] = []
    for i, atom in enumerate(atoms):
        if i in drop_atoms:
            continue
        remap[i] = len(kept_atoms)
        kept_atoms.append(atom)
    kept_bonds = [
        Bond((remap[a], remap[b]), bond.order, bond.stereo_annotation)
        for bi, (a, b, bond) in enumerate(bonds)
        if bi not in drop_bonds
    ]
    kept_bonds.extend(Bond((remap[a], remap[b]), SINGLE) for a, b in new_bonds)
    atoms_t, bonds_t = tuple(kept_atoms), tuple(kept_bonds)
    merged = Molecule(atoms=atoms_t, bonds=bonds_t, source_text="")
    return Molecule(atoms=atoms_t, bonds=bonds_t, source_text=canonical_smiles(merged))


def rejoin(fs: FragmentSet, rules: RuleTable | None = None) -> Molecule:
    """Reconnect a fragment set into its parent molecule.

    With provenance the recorded dummy pairs are spliced directly.
    Without it, pairing falls back to :func:`pair_by_labels` under
    ``rules`` (default: the shipped rule table).
    """
    if len(fs.fragments) == 1 and not fs.cleaved:
        return fs.fragments[0]
    atoms, bonds, offset = _merge(fs.fragments)
    if fs.provenance is not None:
        pairs = [(offset[site_a], offset[site_b]) for site_a, site_b in fs.provenance]
    else:
        pairs = [
            (offset[site_a], offset[site_b])
            for site_a, site_b in pair_by_labels(fs.fragments, rules)
        ]
    return _splice(atoms, bonds, pairs)


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


def carbon_cap(f: Molecule) -> Molecule:
    """Replace every dummy atom by a carbon atom in place.

    Bonds are kept; the substituted carbons pick up implicit hydrogens to
    complete their valence. Fragments without dummies come back unchanged.
    """
    if not any(a.is_dummy for a in f.atoms):
        return f
    new_atoms: list[Atom] = []
    for i, atom in enumerate(f.atoms):
        if not atom.is_dummy:
            new_atoms.append(atom)
            continue
        new_atoms.append(
            Atom(element="C", implicit_h=max(0, 4 - sigma_valence(f, i)))
        )
    atoms = tuple(new_atoms)
    capped = Molecule(atoms=atoms, bonds=f.bonds, source_text="")
    capped.__dict__["neighbors"] = f.neighbors  # same bonds, same adjacency
    return Molecule(atoms=atoms, bonds=f.bonds, source_text=canonical_smiles(capped))
