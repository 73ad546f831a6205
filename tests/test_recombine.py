import random

import pytest

from fragsmith.brics import FragmentParams, FragmentSet, fragment, load_rules
from fragsmith.molgraph import Molecule, canonical_smiles, parse_smiles, validate, write_smiles
from fragsmith.recombine import (
    AmbiguousRejoinError,
    UnpairedLabelError,
    carbon_cap,
    rejoin,
)


class TestRejoin:
    def test_figure_molecule_round_trip(self, default_params):
        fs = fragment(parse_smiles("OCCCN1CCOCC1"), default_params)
        assert canonical_smiles(rejoin(fs)) == fs.parent_canonical

    def test_single_fragment_identity(self, default_params):
        fs = fragment(parse_smiles("C"), default_params)
        assert rejoin(fs) is fs.fragments[0]

    def test_round_trip_on_corpus_sample(self, corpus_lines, default_params):
        rng = random.Random(3)
        for smi in rng.sample(corpus_lines, 60):
            fs = fragment(parse_smiles(smi), default_params)
            if not fs.cleaved:
                continue
            assert canonical_smiles(rejoin(fs)) == fs.parent_canonical, smi

    def test_round_trip_many_cuts(self):
        smi = "CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1"
        fs = fragment(parse_smiles(smi), FragmentParams(k=1000, alpha=1.5, seed=0))
        assert len(fs.fragments) >= 4
        assert canonical_smiles(rejoin(fs)) == fs.parent_canonical


class TestProvenanceFreeRejoin:
    def _build(self, *smiles):
        return FragmentSet(
            fragments=tuple(parse_smiles(s) for s in smiles),
            parent_canonical="",
            cleaved=(),
            provenance=None,
        )

    def test_two_fragments(self):
        fs = self._build("[4*]CCCO", "[5*]N1CCOCC1")
        assert canonical_smiles(rejoin(fs)) == canonical_smiles(
            parse_smiles("OCCCN1CCOCC1")
        )

    def test_symmetric_twin_labels(self):
        fs = self._build("[2*]N[2*]", "[1*]C(C)=O", "[16*]c1ccccc1")
        assert canonical_smiles(rejoin(fs)) == canonical_smiles(
            parse_smiles("CC(=O)Nc1ccccc1")
        )

    def test_ambiguous_pairing_raises(self):
        fs = self._build("[3*]OCC[5*]", "[4*]C", "[4*]CCC")
        with pytest.raises(AmbiguousRejoinError):
            rejoin(fs)

    def test_unpaired_label_raises(self):
        fs = self._build("[3*]OC", "CC")
        with pytest.raises(UnpairedLabelError):
            rejoin(fs)

    def test_odd_dummy_count_raises(self):
        fs = self._build("[3*]OC[3*]", "[4*]C")
        with pytest.raises(UnpairedLabelError):
            rejoin(fs)

    def test_from_fragment_payload_strings(self):
        # simulate scoring an externally produced single-cut fragment set
        parent = parse_smiles("COc1ccc(CN2CCNCC2)cc1")
        fs = fragment(parent, FragmentParams(k=12, alpha=1.0, seed=0))
        assert len(fs.cleaved) == 1
        strings = [f.source_text for f in fs.fragments]
        rebuilt = self._build(*strings)
        assert canonical_smiles(rejoin(rebuilt)) == fs.parent_canonical

    def test_custom_rule_table_pairs_its_own_labels(self, tmp_path):
        # labels 1 and 4 are no pair in the shipped table, but are here
        table = tmp_path / "rules.txt"
        table.write_text("1\t[C]\t4\tsingle\n4\t[C]\t1\tsingle\n")
        rules = load_rules(str(table))
        fs = self._build("[1*]C(C)=O", "[4*]CC")
        with pytest.raises(UnpairedLabelError):
            rejoin(fs)
        assert canonical_smiles(rejoin(fs, rules)) == canonical_smiles(
            parse_smiles("CCC(C)=O")
        )

    def test_rich_sets_are_honestly_ambiguous(self, default_params):
        # with several cuts the labels alone often admit multiple
        # assemblies (ester vs amide attachment); that must error, not
        # silently pick one
        fs = fragment(parse_smiles("COc1ccc(CN2CCNCC2)cc1"), default_params)
        assert len(fs.cleaved) >= 3
        rebuilt = self._build(*[f.source_text for f in fs.fragments])
        with pytest.raises(AmbiguousRejoinError):
            rejoin(rebuilt)


class TestCarbonCap:
    def test_single_dummy(self):
        capped = carbon_cap(parse_smiles("[1*]N1CCOCC1"))
        assert canonical_smiles(capped) == canonical_smiles(parse_smiles("CN1CCOCC1"))

    def test_two_dummies(self):
        capped = carbon_cap(parse_smiles("[3*]O[3*]"))
        assert canonical_smiles(capped) == canonical_smiles(parse_smiles("COC"))

    def test_no_dummy_returns_same_object(self):
        m = parse_smiles("CCO")
        assert carbon_cap(m) is m

    def test_validity_preserved(self, corpus_lines, default_params):
        rng = random.Random(5)
        for smi in rng.sample(corpus_lines, 30):
            fs = fragment(parse_smiles(smi), default_params)
            for frag in fs.fragments:
                capped = carbon_cap(frag)
                assert validate(capped).valid, (smi, frag.source_text)

    def test_fragment_strings_are_canonical_fixed_points(self, corpus_lines, default_params):
        # graphs built by fragmentation/capping must canonicalize to
        # strings that re-parse to the same canonical form
        rng = random.Random(17)
        for smi in rng.sample(corpus_lines, 25):
            fs = fragment(parse_smiles(smi), default_params)
            for frag in fs.fragments:
                assert canonical_smiles(parse_smiles(frag.source_text)) == frag.source_text
                capped = carbon_cap(frag)
                assert canonical_smiles(parse_smiles(capped.source_text)) == capped.source_text

    def test_heavy_atom_count_preserved(self, default_params):
        fs = fragment(parse_smiles("OCCCN1CCOCC1"), default_params)
        for frag in fs.fragments:
            capped = carbon_cap(frag)
            assert len(capped.atoms) == len(frag.atoms)
            assert not any(a.is_dummy for a in capped.atoms)
            # only dummy -> carbon substitutions happened
            for old, new in zip(frag.atoms, capped.atoms):
                if old.is_dummy:
                    assert new.element == "C"
                else:
                    assert new.element == old.element


class TestSpliceSites:
    """A spliced site must be a dummy with exactly one bond, to an atom
    that is not itself a dummy."""

    def _rejoin(self, smiles, provenance):
        return rejoin(FragmentSet(
            fragments=tuple(parse_smiles(s) for s in smiles),
            parent_canonical="",
            cleaved=(),
            provenance=provenance,
        ))

    @pytest.mark.parametrize("smiles, bonds", [
        (("C[4*]", "N.[5*]"), 0),
        (("C[4*]", "N[5*]C"), 2),
    ])
    def test_site_without_exactly_one_bond(self, smiles, bonds):
        with pytest.raises(UnpairedLabelError, match=f"exactly one bond, found {bonds}"):
            self._rejoin(smiles, (((0, 1), (1, 1)),))

    def test_site_bonded_to_a_dummy(self):
        provenance = (((0, 1), (1, 0)), ((1, 1), (2, 1)))
        with pytest.raises(UnpairedLabelError, match="bonded to another dummy"):
            self._rejoin(("C[1*]", "[3*][3*]", "N[1*]"), provenance)


TOPOLOGY = ("neighbors", "ring_bonds", "ring_atoms", "components")


def _built_molecules(default_params):
    """Each kind of molecule the package builds in code, by name, each
    from fresh inputs: pairing by labels computes a fragment's topology,
    so a fragment is looked at before anything reads it."""
    def cut():
        fs = fragment(parse_smiles("OCCCN1CCOCC1"), default_params)
        assert len(fs.fragments) == 2
        return fs

    def labelled():
        return FragmentSet(
            fragments=tuple(parse_smiles(s) for s in ("[4*]CCCO", "[5*]N1CCOCC1")),
            parent_canonical="",
            cleaved=(),
            provenance=None,
        )

    return {
        "fragment 0": lambda: cut().fragments[0],
        "fragment 1": lambda: cut().fragments[1],
        "uncut fragment": lambda: fragment(parse_smiles("C"), default_params).fragments[0],
        "uncut ring": lambda: fragment(parse_smiles("c1ccccc1"), default_params).fragments[0],
        "rejoin with provenance": lambda: rejoin(cut()),
        "rejoin by labels": lambda: rejoin(labelled()),
        "capped 0": lambda: carbon_cap(cut().fragments[0]),
        "capped 1": lambda: carbon_cap(cut().fragments[1]),
    }


class TestBuiltMolecules:
    def test_carry_their_canonical_smiles(self, default_params):
        for name, build in _built_molecules(default_params).items():
            m = build()
            assert m.source_text == canonical_smiles(m), name

    def test_keep_no_topology(self, default_params):
        for name, build in _built_molecules(default_params).items():
            assert not set(TOPOLOGY) & set(vars(build())), name

    def test_canonical_smiles_reads_the_carried_text(self, default_params):
        for name, build in _built_molecules(default_params).items():
            m = build()
            text = canonical_smiles(m)
            assert not set(TOPOLOGY) & set(vars(m)), name
            assert text == write_smiles(Molecule(m.atoms, m.bonds, "")), name

    def test_rejoin_and_cap_leave_fragments_without_topology(self):
        fs = fragment(parse_smiles("CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1"),
                      FragmentParams(k=1000, alpha=1.5, seed=0))
        assert len(fs.fragments) >= 4 and fs.provenance
        assert canonical_smiles(rejoin(fs)) == fs.parent_canonical
        for f in fs.fragments:
            carbon_cap(f)
        for k, f in enumerate(fs.fragments):
            assert not set(TOPOLOGY) & set(vars(f)), k


def test_validate_on_built_aromatic_molecules_keeps_no_adjacency():
    # validate reads the ring atoms of an aromatic atom; the ring bits are
    # found over a throw-away adjacency, so at most the two bit sets stay.
    fs = fragment(parse_smiles("CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1"),
                  FragmentParams(k=1000, alpha=1.5, seed=0))
    capped = [carbon_cap(f) for f in fs.fragments]
    aromatic = [c for c in capped if any(a.aromatic for a in c.atoms)]
    assert aromatic
    for m in (*aromatic, rejoin(fs)):
        assert validate(m).valid, m.source_text
        assert "ring_atoms" in vars(m) and not {"neighbors", "components"} & set(vars(m)), m.source_text
        assert m.ring_atoms.bit_count() == parse_smiles(m.source_text).ring_atoms.bit_count()


def test_capping_carbons_are_shared():
    one, two = carbon_cap(parse_smiles("[1*]N1CCOCC1")), carbon_cap(parse_smiles("CC[3*]"))
    assert one.atoms[0] == two.atoms[2] and one.atoms[0] is two.atoms[2]
    assert one.atoms[0].h_total == 3


def test_dummy_atoms_are_shared():
    """Every cut side takes the one dummy record of its label."""
    params = FragmentParams(k=1000, alpha=1.5, seed=0)
    sets = [fragment(parse_smiles(smi), params)
            for smi in ("CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1", "OCCCN1CCOCC1", "CCOC(=O)c1ccccc1")]
    by_label: dict[int, list] = {}
    for fs in sets:
        for f in fs.fragments:
            for a in f.atoms:
                if a.is_dummy:
                    by_label.setdefault(a.link_label, []).append(a)
    assert any(len(dummies) > 1 for dummies in by_label.values())
    for label, dummies in by_label.items():
        assert all(d is dummies[0] for d in dummies), label
