import dataclasses
import random
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fragsmith import molgraph
from fragsmith.brics import BricsBond, cut_bonds, find_brics_bonds
from fragsmith.elements import DEFAULT_VALENCES, allowed_valences
from fragsmith.molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    SmilesError,
    _assemble,
    _component_ranks,
    _default_hydrogens,
    bit_indices,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    randomized_smiles,
    symmetry_classes,
    validate,
)
from fragsmith.recombine import carbon_cap, rejoin

from oracles import (
    assemble_reference,
    component_ranks_reference,
    default_hydrogens_reference,
    graph_isomorphic,
    kekule_form,
    parse_smiles_reference,
    sigma_valence_reference,
    small_rings_reference,
    write_smiles_reference,
)
from test_parallel import FUZZ_TOKENS
from test_random_graphs import molecule_graphs


class TestParse:
    def test_figure_molecule(self):
        m = parse_smiles("OCCCN1CCOCC1")
        assert len(m.atoms) == 10
        assert len(m.bonds) == 10
        ring = list(bit_indices(m.ring_atoms))
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
         "C.=C", "[17*]CC", "C12CC12", "C²", "[CH²]", "[²C]", "C%1²", "[C+²]", "[CH３]"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SmilesError) as exc:
            parse_smiles(bad)
        assert exc.value.offset is not None

    def test_bracket_atom_features(self):
        m = parse_smiles("[13CH3+]")
        a = m.atoms[0]
        assert a.isotope == 13
        assert a.h_total == 3
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

    def test_bracket_and_organic_atoms_hold_one_hydrogen_count(self):
        assert parse_smiles("[CH4]").atoms == parse_smiles("C").atoms

    def test_double_bond_marks_read_and_dropped(self):
        marked, plain = parse_smiles("F/C=C\\F"), parse_smiles("FC=CF")
        assert (marked.atoms, marked.bonds) == (plain.atoms, plain.bonds)

    def test_chirality_read_and_dropped(self):
        assert parse_smiles("[C@@H](N)(O)C").atoms == parse_smiles("[CH](N)(O)C").atoms

    def test_records_are_slotted(self):
        fs = cut_bonds(parse_smiles("CCO"), [BricsBond(bond_index=1, labels=(1, 2))])
        for record in (Atom("C"), Bond(0, 1), fs.cleaved[0], fs):
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_equal_atoms_of_one_parse_are_one_record(self):
        m = parse_smiles("c1ccccc1")
        assert all(a is m.atoms[0] for a in m.atoms)
        m = parse_smiles("CC(C)O")
        assert m.atoms[0] is m.atoms[2]
        assert len({id(a) for a in m.atoms}) == 3  # CH3, CH, OH

    def test_atom_and_bond_fields(self):
        assert [f.name for f in dataclasses.fields(Atom)] == [
            "element", "aromatic", "formal_charge", "h_total", "isotope", "link_label",
        ]
        assert [f.name for f in dataclasses.fields(Bond)] == ["a", "b", "order"]

    @pytest.mark.parametrize("smi, offset", [
        ("C/", 1), ("/C", 1), ("C/.C", 2), ("C(/)C", 3), ("C//C", 2), ("C=/C", 2),
        ("[C@@@@@H](F)(Cl)Br", 0), ("[C@@@H]C", 0),
        ("C(=)C", 3), ("C(C=)C", 4),
        ("C..C", 2), (".C", 0), ("C.", 1), ("C(C.)C", 4),
        ("C()C", 2), ("C(.)C", 3),
    ])
    def test_refused_forms(self, smi, offset):
        for parse in (parse_smiles, parse_smiles_reference):
            with pytest.raises(SmilesError) as exc:
                parse(smi)
            assert exc.value.offset == offset, parse.__name__

    @pytest.mark.parametrize("smi, plain", [
        ("F/C=C\\F", "FC=CF"), ("C(/F)=C\\F", "FC=CF"), ("[C@@H](N)(O)C", "[CH](N)(O)C"),
        ("C(.C)C", "CC.C"), ("C=(C)C", "C(=C)C"), ("C/1=C/CCCC1", "C1=CCCCC1"),
    ])
    def test_marks_and_branches_still_parse(self, smi, plain):
        assert canonical_smiles(parse_smiles(smi)) == canonical_smiles(parse_smiles(plain))

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
        assert m.ring_atoms.bit_count() == 6

    @pytest.mark.parametrize("smi, element", [("c1cc[se]c1", "Se"), ("c1cc[as]c1", "As")])
    def test_aromatic_two_letter_bracket_symbols(self, smi, element):
        m = parse_smiles(smi)
        assert (m.atoms[3].element, m.atoms[3].aromatic) == (element, True)
        canon = canonical_smiles(m)
        assert canonical_smiles(parse_smiles(canon)) == canon


# The crash-guard fuzz tokens plus bracket atoms, ring-closure spellings
# and a non-ASCII digit.
_LEXER_TOKENS = [
    *FUZZ_TOKENS, "[se]", "[C@@H]", "[NH3+]", "[O--]", "[Fe+2]", "[C:1]", "[C:]", "[17*]",
    "[0*]", "%", "%1", "²",
]


def _parse_outcome(parse, text):
    """The atoms, bonds and source text, or the offset of the SmilesError."""
    try:
        m = parse(text)
    except SmilesError as exc:
        return exc.offset
    return m.atoms, m.bonds, m.source_text


def test_lexer_equals_character_scanner(corpus_lines):
    """The regex lexer reads every input as the character scanner did,
    except where the scanner was wrong: it rejected the aromatic [se]
    and [as], and crashed on digits outside ASCII, which now raise."""
    inputs = list(corpus_lines)
    for k, smi in enumerate(corpus_lines):
        inputs += [randomized_smiles(parse_smiles(smi), 3 * k + r) for r in range(3)]
    rng = random.Random(2031)
    inputs += ["".join(rng.choice(_LEXER_TOKENS) for _ in range(rng.randint(1, 14)))
               for _ in range(20_000)]
    parsed = compared = 0
    for text in inputs:
        outcome = _parse_outcome(parse_smiles, text)
        if any(ch.isdigit() and not ch.isascii() for ch in text):
            assert isinstance(outcome, int), text
        elif "[se]" not in text and "[as]" not in text:
            assert outcome == _parse_outcome(parse_smiles_reference, text), text
            compared += 1
            parsed += not isinstance(outcome, int)
    # 19,814 compared: every corpus input, and fuzz strings that both
    # parse (about 1,950) and fail (about 13,000).
    assert compared > 19_000
    assert 4 * len(corpus_lines) + 1_000 < parsed < compared - 10_000


@pytest.mark.parametrize("smi", ["C:C", "CC1CC1.C:C", "C1:C:C:C:C:C1"])
def test_aromatic_bond_between_non_aromatic_atoms_invalid(smi):
    m = parse_smiles(smi)
    assert any(msg == "aromatic bond between non-aromatic atoms" for _, msg in validate(m).failures)
    canon = canonical_smiles(m)
    assert ":" in canon
    assert canonical_smiles(parse_smiles(canon)) == canon


def test_aromatic_bond_outside_rings_is_not_biphenyl():
    """An aromatic bond between aromatic atoms outside any ring is written
    as ``:``, so it neither collides with biphenyl's single bond nor
    changes order when the canonical string is read back."""
    canon = {}
    for smi, order in (("c1ccccc1:c1ccccc1", AROMATIC), ("c1ccccc1-c1ccccc1", SINGLE)):
        for text in (smi, canonical_smiles(parse_smiles(smi))):
            m = parse_smiles(text)
            assert [b.order for bi, b in enumerate(m.bonds) if not m.ring_bonds >> bi & 1] == [order]
        canon[order] = canonical_smiles(m)
        assert canon[order] == text
    assert canon[AROMATIC] != canon[SINGLE]


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
            atoms=tuple(Atom(element="C", h_total=1) for _ in range(n)),
            bonds=tuple(Bond(a, b) for a, b in sorted(edges)),
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


@st.composite
def _plain_graphs(draw):
    """Carbon atoms joined by random single bonds: rings, bridges, isolated
    atoms and several components, with no chemistry constraint."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    ends = dict.fromkeys(tuple(sorted(p)) for p in pairs if p[0] != p[1])
    return Molecule(tuple(Atom("C") for _ in range(n)), tuple(Bond(a, b) for a, b in ends), "")


def _joined_without(ends, skip: int) -> bool:
    """Whether bond ``skip``'s two ends stay connected once it is removed
    (breadth-first search over the other bonds)."""
    start, goal = ends[skip]
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for node in frontier:
            for bi, (a, b) in enumerate(ends):
                if bi != skip and node in (a, b):
                    other = b if node == a else a
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
        frontier = nxt
    return goal in seen


@given(_plain_graphs())
def test_ring_bits_are_the_bonds_on_a_cycle(m):
    """Bit i of ``ring_bonds`` is set exactly when bond i's ends stay
    connected without it; ``ring_atoms`` holds exactly those bonds' ends."""
    ends = [(b.a, b.b) for b in m.bonds]
    on_cycle = [bi for bi in range(len(ends)) if _joined_without(ends, bi)]
    assert m.ring_bonds == sum(1 << bi for bi in on_cycle)
    assert m.ring_atoms == sum(1 << i for i in {x for bi in on_cycle for x in ends[bi]})
    assert list(bit_indices(m.ring_bonds)) == on_cycle


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
             "small_rings", "atoms_by_kind", "kind_counts"]
    assert not set(names) & set(vars(fresh))
    for name in names:
        value = getattr(fresh, name)
        assert vars(fresh)[name] is value is getattr(fresh, name)
        assert value == getattr(m, name)
    assert fresh == m


def test_validate_leaves_topology_unset_without_aromatic_atoms():
    for smi in ("OCCCN1CCOCC1", "C1CC1C(=O)[O-].[Na+]", "[CH5]"):
        m = parse_smiles(smi)
        fresh = Molecule(atoms=m.atoms, bonds=m.bonds, source_text=m.source_text)
        assert validate(fresh) == validate(m)
        assert not {"neighbors", "ring_bonds", "ring_atoms", "components"} & set(vars(fresh)), smi


def test_default_hydrogens_equal_the_string_keyed_rule():
    # Every valence-table element and one without an entry, aromatic or
    # not, over every multiset of up to four bond orders.
    for element in [*DEFAULT_VALENCES, "Fe"]:
        for aromatic in (False, True):
            for n in range(5):
                for orders in combinations_with_replacement((SINGLE, DOUBLE, TRIPLE, AROMATIC), n):
                    assert _default_hydrogens(element, aromatic, list(orders)) == (
                        default_hydrogens_reference(element, aromatic, orders)
                    ), (element, aromatic, orders)


# Explicit aromatic bonds, most between atoms that stay aromatic-free,
# and the number of atoms over their valence.
@pytest.mark.parametrize("smi, over", [
    ("C:C", 0), ("C:C:C", 0), ("O:C(:O)C", 0), ("S(:O)(:O)(:O):O", 0),
    ("[CH4]:C", 1), ("[NH3]:C:N", 1), ("[cH3]1ccccc1", 1),
])
def test_validate_counts_an_aromatic_bond_as_one_sigma_slot(smi, over):
    m = parse_smiles(smi)
    expected = []
    for i, a in enumerate(m.atoms):
        total = sigma_valence_reference(m, i) + a.h_total
        top = max(allowed_valences(a.element, a.formal_charge))
        if total > top:
            expected.append((i, f"{a.element} valence {total} exceeds {top}"))
    assert len(expected) == over
    assert [f for f in validate(m).failures if "valence" in f[1]] == expected


@pytest.mark.parametrize("smi", ["C:[1*]", "[1*]:C:[2*]", "[1*]:C(:[2*])=O", "C=[1*]", "C#[1*]",
                                 "c1ccccc1:[1*]", "[1*]:[2*]"])
def test_carbon_cap_counts_an_aromatic_bond_as_one_sigma_slot(smi):
    f = parse_smiles(smi)
    capped = carbon_cap(f)
    for i, a in enumerate(f.atoms):
        if a.is_dummy:
            assert capped.atoms[i].h_total == max(0, 4 - sigma_valence_reference(f, i)), i


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


def _lexed(text: str):
    """The atoms, bonds and text that ``parse_smiles`` hands to ``_assemble``."""
    with mock.patch.object(molgraph, "_assemble", lambda *args: args):
        return parse_smiles(text)


def _assert_assembly_equals_reference(text: str) -> Molecule | None:
    """Assemble the lexed ``text`` with the package and with the ungated
    reference, compare the graphs and their topology, and return the
    package's molecule (None when ``text`` does not lex)."""
    try:
        work, raw_bonds, _ = _lexed(text)
    except SmilesError:
        return None
    m = _assemble([dataclasses.replace(w) for w in work], raw_bonds, text)
    ref = assemble_reference(work, raw_bonds, text)
    for name in ("atoms", "bonds", "neighbors", "ring_bonds", "small_rings"):
        assert getattr(m, name) == getattr(ref, name), (text, name)
    return m


class TestAssemblyEqualsReference:
    """Gating aromaticity perception changes no parsed graph."""

    def test_corpus_and_serializations(self, corpus_lines):
        for k, smi in enumerate(corpus_lines):
            m = _assert_assembly_equals_reference(smi)
            for r in range(3):
                _assert_assembly_equals_reference(randomized_smiles(m, 3 * k + r))

    def test_smiles_alphabet_fuzz(self):
        rng = random.Random(2027)
        parsed = 0
        for _ in range(20_000):
            text = "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 14)))
            parsed += _assert_assembly_equals_reference(text) is not None
        assert parsed > 1_000

    @given(molecule_graphs(), st.integers(0, 2**16))
    def test_random_graphs(self, mol, seed):
        _assert_assembly_equals_reference(canonical_smiles(mol))
        _assert_assembly_equals_reference(randomized_smiles(mol, seed))

    def test_kekule_forms_of_the_corpus(self, corpus_lines):
        """The fixture is written aromatic, so its lines never reach
        perception; their Kekule forms do, and must parse back to the
        aromatic molecule. (Lines whose aromatic atoms admit no Kekule
        structure, such as a neutral three-connected n, are left out.)"""
        kekulized = 0
        for k, smi in enumerate(corpus_lines):
            m = parse_smiles(smi)
            kekule = kekule_form(m) if any(a.aromatic for a in m.atoms) else None
            if kekule is None:
                continue
            kekulized += 1
            for text in (canonical_smiles(kekule), randomized_smiles(kekule, k)):
                back = _assert_assembly_equals_reference(text)
                assert canonical_smiles(back) == canonical_smiles(m), (smi, text)
        assert kekulized > 850


# Inputs that perception aromatizes, so the gate must let it run:
# exocyclic C=O and NH lone pairs (cyanuric acid), an aliphatic N closing
# an aromatic chain, and Kekule benzene, naphthalene, furan and pyrrole.
@pytest.mark.parametrize("smi", ["O=C1NC(=O)NC(=O)N1", "c1cccN1", "C1=CC=CC=C1",
                                 "C1=CC=C2C=CC=CC2=C1", "C1=COC=C1", "C1=CNC=C1"])
def test_gate_lets_aromatizable_rings_through(smi):
    m = _assert_assembly_equals_reference(smi)
    assert all(m.atoms[i].aromatic for i in bit_indices(m.ring_atoms))
    assert all(m.bonds[bi].order == AROMATIC for bi in bit_indices(m.ring_bonds))


def test_parse_leaves_small_rings_lazy():
    """Only perception needs the ring search at parse time; it must not
    creep back into every parse."""
    assert "small_rings" not in parse_smiles("OCCCN1CCOCC1").__dict__
