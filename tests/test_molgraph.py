import random

import pytest
from hypothesis import given, strategies as st

from fragsmith.brics import cut_bonds, find_brics_bonds
from fragsmith.molgraph import (
    Atom,
    Bond,
    Molecule,
    SmilesError,
    _component_ranks,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    randomized_smiles,
    symmetry_classes,
    validate,
)
from fragsmith.recombine import carbon_cap, rejoin

from oracles import (
    component_ranks_reference,
    graph_isomorphic,
    small_rings_reference,
    write_smiles_reference,
)
from test_random_graphs import molecule_graphs


class TestParse:
    def test_figure_molecule(self):
        m = parse_smiles("OCCCN1CCOCC1")
        assert len(m.atoms) == 10
        assert len(m.bonds) == 10
        ring = m.ring_atoms
        assert len(ring) == 6
        ring_elements = sorted(m.atoms[i].element for i in ring)
        assert ring_elements == ["C", "C", "C", "C", "N", "O"]

    def test_single_atom(self):
        m = parse_smiles("C")
        assert len(m.atoms) == 1
        assert len(m.bonds) == 0
        assert m.atoms[0].h_total == 4

    def test_unmatched_ring_closure(self):
        with pytest.raises(SmilesError) as exc:
            parse_smiles("C1CC")
        assert "ring closure" in str(exc.value)
        assert exc.value.offset is not None

    @pytest.mark.parametrize(
        "bad",
        ["", "C(", "CC)", "[Zz]", "C=", "C==C", "%5C", "C11", "[C", "1CC",
         "C.=C", "[17*]CC", "C12CC12"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SmilesError):
            parse_smiles(bad)

    def test_bracket_atom_features(self):
        m = parse_smiles("[13CH3+]")
        a = m.atoms[0]
        assert a.isotope == 13
        assert a.explicit_h == 3
        assert a.formal_charge == 1

    def test_charge_forms(self):
        assert parse_smiles("[O-]").atoms[0].formal_charge == -1
        assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
        assert parse_smiles("[Fe++]").atoms[0].formal_charge == 2

    def test_dummy_link_labels(self):
        m = parse_smiles("[1*]CC[16*]")
        assert m.atoms[0].link_label == 1
        assert m.atoms[3].link_label == 16
        assert m.atoms[0].is_dummy

    def test_stereo_markers_preserved_not_interpreted(self):
        m = parse_smiles("C/C=C/C")
        annotations = [b.stereo_annotation for b in m.bonds]
        assert "/" in annotations
        m2 = parse_smiles("[C@H](N)(O)C")
        assert m2.atoms[0].stereo == "@"

    def test_dot_components(self):
        m = parse_smiles("CCO.CCN")
        assert len(m.components) == 2
        assert not m.connected

    def test_two_letter_elements(self):
        m = parse_smiles("ClCCBr")
        assert m.atoms[0].element == "Cl"
        assert m.atoms[-1].element == "Br"

    def test_percent_ring_closure(self):
        m = parse_smiles("C%10CCCCC%10")
        assert len(m.ring_atoms) == 6


class TestCanonical:
    def test_benzene_kekule_equivalence(self):
        aromatic = parse_smiles("c1ccccc1")
        kekule = parse_smiles("C1=CC=CC=C1")
        assert graph_isomorphic(aromatic, kekule)
        assert canonical_smiles(aromatic) == canonical_smiles(kekule)

    def test_same_graph_same_string(self):
        a = parse_smiles("OCC")
        b = parse_smiles("CCO")
        assert graph_isomorphic(a, b)
        assert canonical_smiles(a) == canonical_smiles(b)

    def test_idempotent(self, corpus_lines):
        for smi in corpus_lines[:40]:
            c = canonical_smiles(parse_smiles(smi))
            assert canonical_smiles(parse_smiles(c)) == c

    def test_round_trip_isomorphic(self, corpus_lines):
        for smi in corpus_lines[:25]:
            m = parse_smiles(smi)
            again = parse_smiles(canonical_smiles(m))
            assert graph_isomorphic(m, again), smi

    def test_component_order_is_canonical(self):
        assert canonical_smiles(parse_smiles("CCN.CCO")) == canonical_smiles(
            parse_smiles("CCO.CCN")
        )

    def test_heteroaromatic_equivalence(self):
        pairs = [
            ("c1cc[nH]c1", "C1=CC=CN1"),
            ("c1ccc2ccccc2c1", "C1=CC=C2C=CC=CC2=C1"),
            ("O=c1cccc[nH]1", "O=C1C=CC=CN1"),
        ]
        for a, b in pairs:
            assert canonical_smiles(parse_smiles(a)) == canonical_smiles(
                parse_smiles(b)
            ), (a, b)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_randomized_order_invariance(self, seed):
        m = parse_smiles("CC(=O)Nc1ccc(OCC2CCNCC2)cc1F")
        reference = canonical_smiles(m)
        alt = randomized_smiles(m, seed)
        assert canonical_smiles(parse_smiles(alt)) == reference

    def test_randomized_on_corpus(self, corpus_lines):
        rng = random.Random(7)
        for smi in rng.sample(corpus_lines, 15):
            m = parse_smiles(smi)
            reference = canonical_smiles(m)
            for seed in range(4):
                alt = randomized_smiles(m, seed)
                assert canonical_smiles(parse_smiles(alt)) == reference, (smi, alt)


class TestWeight:
    def test_water(self):
        assert molecular_weight(parse_smiles("O")) == pytest.approx(18.02, abs=0.01)

    def test_benzene(self):
        assert molecular_weight(parse_smiles("c1ccccc1")) == pytest.approx(
            78.11, abs=0.01
        )

    def test_dummy_contributes_zero(self):
        with_dummy = molecular_weight(parse_smiles("[1*]CCO"))
        plain = molecular_weight(parse_smiles("CCO"))
        # The dummy replaces one hydrogen slot on the attached carbon.
        assert with_dummy == pytest.approx(plain - 1.008, abs=1e-6)

    def test_monotone_under_growth(self):
        series = ["C", "CC", "CCC", "CCCC", "CCCCO", "CCCCON"]
        weights = [molecular_weight(parse_smiles(s)) for s in series]
        assert weights == sorted(weights)
        assert all(b > a for a, b in zip(weights, weights[1:]))


class TestValidate:
    def test_pentavalent_carbon(self):
        report = validate(parse_smiles("CC(C)(C)(C)C"))
        assert not report.valid
        assert any("valence" in reason for _, reason in report.failures)

    def test_figure_molecule_valid(self):
        assert validate(parse_smiles("OCCCN1CCOCC1")).valid

    def test_dummy_exempt(self):
        assert validate(parse_smiles("[1*]N1CCOCC1")).valid

    def test_charged_nitrogen(self):
        assert validate(parse_smiles("[NH4+]")).valid
        assert validate(parse_smiles("[N+](=O)([O-])c1ccccc1")).valid
        assert not validate(parse_smiles("N(=O)=O")).valid

    def test_aromatic_atom_outside_ring(self):
        report = validate(parse_smiles("cC"))
        assert not report.valid
        assert any("ring" in reason for _, reason in report.failures)

    def test_report_shape(self):
        report = validate(parse_smiles("CC(C)(C)(C)C"))
        assert report.valid == (len(report.failures) == 0)


def test_weight_table_coverage():
    # every organic-subset and common salt element resolves
    for smi in ["B", "[Si](C)(C)C", "[Na+].[Cl-]", "[Se]", "P", "S", "I"]:
        assert molecular_weight(parse_smiles(smi)) > 0


def test_implicit_hydrogens_aromatic():
    pyridine = parse_smiles("c1ccncc1")
    n_idx = next(i for i, a in enumerate(pyridine.atoms) if a.element == "N")
    assert pyridine.atoms[n_idx].h_total == 0
    pyrrole = parse_smiles("c1cc[nH]c1")
    n_idx = next(i for i, a in enumerate(pyrrole.atoms) if a.element == "N")
    assert pyrrole.atoms[n_idx].h_total == 1
    thiophene = parse_smiles("c1ccsc1")
    s_idx = next(i for i, a in enumerate(thiophene.atoms) if a.element == "S")
    assert thiophene.atoms[s_idx].h_total == 0


def _random_cubic_graph(rng: random.Random, n: int) -> Molecule:
    """A random connected 3-regular all-CH carbon graph on ``n`` atoms."""
    while True:
        stubs = [i for i in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[k : k + 2])) for k in range(0, len(stubs), 2)}
        if len(edges) < len(stubs) // 2 or any(a == b for a, b in edges):
            continue
        mol = Molecule(
            atoms=tuple(Atom(element="C", implicit_h=1) for _ in range(n)),
            bonds=tuple(Bond(endpoints=e) for e in sorted(edges)),
            source_text="",
        )
        if mol.connected:
            return mol


def _assert_ranks_equal_reference(m: Molecule) -> None:
    for comp in m.components:
        for break_ties in (False, True):
            assert _component_ranks(m, comp, break_ties=break_ties) == (
                component_ranks_reference(m, comp, break_ties=break_ties)
            ), (canonical_smiles(m), break_ties)


class TestRankingEqualsReference:
    def test_corpus_molecules_and_fragments(self, corpus_lines):
        for smi in corpus_lines:
            m = parse_smiles(smi)
            _assert_ranks_equal_reference(m)
            for frag in cut_bonds(m, find_brics_bonds(m)).fragments:
                _assert_ranks_equal_reference(frag)

    def test_random_cubic_graphs(self):
        rng = random.Random(20)
        for n in (4, 6, 8, 10, 12, 14):
            for _ in range(25):
                _assert_ranks_equal_reference(_random_cubic_graph(rng, n))

    @given(molecule_graphs())
    def test_random_graphs(self, mol):
        _assert_ranks_equal_reference(mol)


def test_parsed_topology_equals_fresh_perception(corpus_lines):
    extra = ["c1ccccc1-c1ccccc1", "C1CC2CCC1CC2", "[Na+].[Cl-]", "C1=CC=CC=C1",
             "c1ccc2[nH]ccc2c1", "C12C3C4C1C5C2C3C45", "CC.C1CC1"]
    for smi in corpus_lines + extra:
        m = parse_smiles(smi)
        fresh = Molecule(atoms=m.atoms, bonds=m.bonds, source_text=m.source_text)
        assert m.neighbors == fresh.neighbors, smi
        assert m.ring_bonds == fresh.ring_bonds, smi
        assert m.small_rings == fresh.small_rings, smi


def test_lazy_attributes_fill_on_first_read():
    m = parse_smiles("OC(=O)Cc1ccccc1.C1CC1")
    fresh = Molecule(atoms=m.atoms, bonds=m.bonds, source_text=m.source_text)
    names = ["neighbors", "ring_bonds", "ring_atoms", "components", "validity",
             "small_rings", "atoms_by_kind"]
    assert not set(names) & set(vars(fresh))
    for name in names:
        value = getattr(fresh, name)
        assert vars(fresh)[name] is value is getattr(fresh, name)
        assert value == getattr(m, name)
    assert fresh == m


CAGES = [
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1CC2CC3CCC1CC23",  # twistane
    "c1ccc2c(c1)C1c3ccccc3C2c2ccccc21",  # triptycene
    "C12C3C4C5C1C6C7C2C8C3C9C4C%10C5C6C%11C7C8C9C%10%11",  # dodecahedrane
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8"
    "c9c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41",  # C60
]


def _assert_writer_equals_reference(m: Molecule) -> None:
    assert canonical_smiles(m) == write_smiles_reference(m)
    for seed in (1, 2, 3):
        assert randomized_smiles(m, seed) == write_smiles_reference(
            m, random.Random(seed)
        ), (canonical_smiles(m), seed)


@pytest.fixture(scope="module")
def corpus_graphs(corpus_lines):
    """Every third fixture molecule, a randomized serialization of each,
    their fragments (every eligible bond cut), the capped fragments, the
    rejoined parents and dot-joined mixtures, plus the cages."""
    graphs = []
    sample = corpus_lines[::3]
    for k, smi in enumerate(sample):
        m = parse_smiles(smi)
        fs = cut_bonds(m, find_brics_bonds(m))
        graphs += [m, parse_smiles(randomized_smiles(m, k)), rejoin(fs)]
        graphs += fs.fragments
        graphs += [carbon_cap(f) for f in fs.fragments]
        graphs.append(parse_smiles(".".join(f.source_text for f in fs.fragments)))
        graphs.append(parse_smiles(f"{smi}.{sample[k - 1]}"))
    return graphs + [parse_smiles(smi) for smi in CAGES]


class TestWriterEqualsReference:
    def test_corpus_fragments_and_cages(self, corpus_graphs):
        for m in corpus_graphs:
            _assert_writer_equals_reference(m)

    def test_random_cubic_graphs(self):
        rng = random.Random(21)
        for n in (4, 6, 8, 10, 12, 14, 20):
            for _ in range(20):
                _assert_writer_equals_reference(_random_cubic_graph(rng, n))

    @given(molecule_graphs())
    def test_random_graphs(self, mol):
        _assert_writer_equals_reference(mol)


def _assert_symmetry_classes_equal_reference(m: Molecule) -> None:
    expected = {}
    for comp in m.components:
        expected.update(component_ranks_reference(m, comp, break_ties=False))
    assert symmetry_classes(m) == expected, canonical_smiles(m)


class TestSymmetryClassesEqualReference:
    def test_corpus_fragments_and_cages(self, corpus_graphs):
        for m in corpus_graphs:
            _assert_symmetry_classes_equal_reference(m)

    def test_random_cubic_graphs(self):
        rng = random.Random(22)
        for n in (4, 8, 12, 16):
            for _ in range(20):
                _assert_symmetry_classes_equal_reference(_random_cubic_graph(rng, n))

    @given(molecule_graphs())
    def test_random_graphs(self, mol):
        _assert_symmetry_classes_equal_reference(mol)


class TestSmallRingsEqualReference:
    def test_corpus_fragments_and_cages(self, corpus_graphs):
        for m in corpus_graphs:
            assert m.small_rings == small_rings_reference(m), m.source_text

    def test_random_cubic_graphs(self):
        rng = random.Random(23)
        for n in (4, 8, 12, 16, 20, 24):
            for _ in range(20):
                m = _random_cubic_graph(rng, n)
                assert m.small_rings == small_rings_reference(m)

    @given(molecule_graphs())
    def test_random_graphs(self, mol):
        assert mol.small_rings == small_rings_reference(mol)
