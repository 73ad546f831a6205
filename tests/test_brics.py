import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fragsmith.brics import (
    FragmentParams,
    FragmentationError,
    RuleTableError,
    cut_bonds,
    find_brics_bonds,
    fragment,
    load_rules,
    max_fragments,
)
from fragsmith.molgraph import SINGLE, parse_smiles

from oracles import brics_bonds_full_scan, fragment_cap_reference

# Alkenes next to amines and carbons, which the fixture corpus has few of.
_EXTRA_SMILES = ["CC=CCN", "C=CCNC(C)=O", "NCC=C", "CN(C)C=CC", "O=C(C=C)Nc1ccccc1"]

# One table whose single rule 1 pairs with double-bond label 3 and has an
# unpinned root; one whose double-bond label 1 sits in no single-bond pair.
_CROSS_KIND_TABLES = [
    "1\t[#6]\t2,3\tsingle\n2\t[N;!D1]\t1\tsingle\n3\t[C;$(C=C)]\t1\tdouble\n",
    "1\t[C;$(C=[C,O])]\t2\tdouble\n2\t[#6,#7]\t1,2\tsingle\n",
]


class TestMaxFragments:
    def test_below_average_returns_length(self):
        assert max_fragments(10, 20, 2.0) == 10
        assert max_fragments(10, 20, 0.3) == 10

    def test_power_branch(self):
        assert max_fragments(100, 20, 2.0) == 25

    def test_clamped_to_length(self):
        assert max_fragments(100, 2, 3.0) == 100

    @pytest.mark.parametrize("args", [(0, 5, 1.0), (5, 0, 1.0), (5, 5, 0.0), (-3, 5, 1.0), (5, 5, -1.0)])
    def test_domain_errors(self, args):
        with pytest.raises(ValueError):
            max_fragments(*args)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.1, max_value=6.0, allow_nan=False),
    )
    def test_matches_straight_line_reference(self, length, k, alpha):
        assert max_fragments(length, k, alpha) == fragment_cap_reference(length, k, alpha)

    def test_nan_alpha_refused(self):
        with pytest.raises(ValueError):
            max_fragments(100, 10, float("nan"))
        with pytest.raises(ValueError, match="alpha"):
            FragmentParams(k=10, alpha=float("nan"))

    @pytest.mark.parametrize("alpha", [1e6, float("inf")])
    def test_overflowing_power_caps_at_length(self, alpha):
        assert max_fragments(100, 10, alpha) == 100
        assert max_fragments(9, 10, alpha) == 9

    def test_result_at_least_one(self):
        assert max_fragments(1, 1, 0.5) >= 1
        assert max_fragments(2, 1, 0.01) >= 1


class TestFindBricsBonds:
    def test_figure_molecule_single_cut(self):
        m = parse_smiles("OCCCN1CCOCC1")
        bonds = find_brics_bonds(m)
        assert len(bonds) == 1
        bb = bonds[0]
        bond = m.bonds[bb.bond_index]
        a, b = bond.a, bond.b
        elements = {m.atoms[a].element, m.atoms[b].element}
        assert elements == {"C", "N"}
        assert not m.ring_bonds >> bb.bond_index & 1
        assert sorted(bb.labels) == [4, 5]

    def test_methane_empty(self):
        assert find_brics_bonds(parse_smiles("C")) == []

    def test_benzene_empty(self):
        assert find_brics_bonds(parse_smiles("c1ccccc1")) == []

    def test_rejects_dummy_atoms(self):
        with pytest.raises(FragmentationError):
            find_brics_bonds(parse_smiles("[1*]CCO"))

    def test_deterministic_bond_order(self):
        m = parse_smiles("CC(=O)Nc1ccc(OC)cc1")
        found = find_brics_bonds(m)
        assert [bb.bond_index for bb in found] == sorted(bb.bond_index for bb in found)
        assert found == find_brics_bonds(m)

    @pytest.mark.parametrize(
        "smiles,expected_pairs",
        [
            ("CC(=O)Nc1ccccc1", [(1, 2), (2, 16)]),  # amide cut + N-aryl cut
            ("CC(=O)OCC", [(1, 3), (3, 4)]),  # ester two cuts
            ("CS(=O)(=O)NC", [(12, 5)]),  # sulfonamide
            ("COc1ccccc1", [(3, 16)]),  # aryl ether
            ("Cc1ccccc1", []),  # terminal methyl never cut
        ],
    )
    def test_environment_pairs(self, smiles, expected_pairs):
        found = find_brics_bonds(parse_smiles(smiles))
        assert [bb.labels for bb in found] == expected_pairs

    def test_equals_full_scan_on_corpus(self, corpus_lines):
        rules = load_rules()
        for smi in corpus_lines + _EXTRA_SMILES:
            m = parse_smiles(smi)
            found = [(bb.bond_index, bb.labels) for bb in find_brics_bonds(m, rules)]
            assert found == brics_bonds_full_scan(m, rules.rules), smi

    @pytest.mark.parametrize("table", _CROSS_KIND_TABLES)
    def test_equals_full_scan_on_cross_kind_tables(self, table, corpus_lines, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(table)
        rules = load_rules(str(path))
        cut = 0
        for smi in corpus_lines + _EXTRA_SMILES:
            m = parse_smiles(smi)
            found = [(bb.bond_index, bb.labels) for bb in find_brics_bonds(m, rules)]
            assert found == brics_bonds_full_scan(m, rules.rules), smi
            cut += len(found)
        assert cut > 0

    def test_ring_bonds_never_cleavable(self, corpus_lines):
        for smi in corpus_lines[:30]:
            m = parse_smiles(smi)
            for bb in find_brics_bonds(m):
                assert not m.ring_bonds >> bb.bond_index & 1
                assert m.bonds[bb.bond_index].order == SINGLE


class TestFragment:
    def test_figure_molecule_two_fragments(self, default_params):
        fs = fragment(parse_smiles("OCCCN1CCOCC1"), default_params)
        assert len(fs.fragments) == 2
        for frag in fs.fragments:
            dummies = [a for a in frag.atoms if a.is_dummy]
            assert len(dummies) == 1
            assert dummies[0].link_label in (4, 5)
        assert len(fs.cleaved) == 1

    def test_no_cleavable_bond_single_fragment(self, default_params):
        fs = fragment(parse_smiles("C"), default_params)
        assert len(fs.fragments) == 1
        assert fs.fragments[0].source_text == "C"
        assert fs.cleaved == ()

    def test_fragment_count_is_cuts_plus_one(self, corpus_lines, default_params):
        for smi in corpus_lines[:40]:
            fs = fragment(parse_smiles(smi), default_params)
            assert len(fs.fragments) == len(fs.cleaved) + 1

    def test_atom_conservation(self, corpus_lines, default_params):
        for smi in corpus_lines[:40]:
            m = parse_smiles(smi)
            fs = fragment(m, default_params)
            heavy = sum(
                1 for f in fs.fragments for a in f.atoms if not a.is_dummy
            )
            assert heavy == len(m.atoms)

    def test_label_pairing_multiset(self, corpus_lines, default_params):
        for smi in corpus_lines[:40]:
            fs = fragment(parse_smiles(smi), default_params)
            dummies = Counter(
                a.link_label for f in fs.fragments for a in f.atoms if a.is_dummy
            )
            expected = Counter()
            for bb in fs.cleaved:
                expected.update(bb.labels)
            assert dummies == expected

    def test_determinism(self, corpus_lines, default_params):
        for smi in corpus_lines[:15]:
            m = parse_smiles(smi)
            assert fragment(m, default_params) == fragment(m, default_params)

    def test_cap_compliance_sampled(self, corpus_lines):
        rng = random.Random(11)
        for smi in rng.sample(corpus_lines, 25):
            m = parse_smiles(smi)
            for k, alpha in [(1, 0.5), (5, 1.0), (20, 1.5), (60, 2.0)]:
                params = FragmentParams(k=k, alpha=alpha, seed=3)
                fs = fragment(m, params)
                cap = max_fragments(len(m.source_text), k, alpha)
                assert len(fs.fragments) <= cap

    def test_seeded_subset_changes_with_seed(self):
        # tight cap forces a choice among eligible bonds
        smi = "CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1"
        m = parse_smiles(smi)
        eligible = len(find_brics_bonds(m))
        assert eligible >= 4
        cuts = set()
        for seed in range(12):
            fs = fragment(m, FragmentParams(k=30, alpha=1.0, seed=seed))
            assert len(fs.cleaved) <= max_fragments(len(smi), 30, 1.0) - 1
            cuts.add(tuple(bb.bond_index for bb in fs.cleaved))
        assert len(cuts) > 1  # the seed actually drives the selection

    def test_same_seed_same_subset(self):
        smi = "CC(=O)Nc1ccc(OCC(=O)NCCN2CCOCC2)cc1"
        m = parse_smiles(smi)
        a = fragment(m, FragmentParams(k=30, alpha=1.0, seed=5))
        b = fragment(m, FragmentParams(k=30, alpha=1.0, seed=5))
        assert a == b

    def test_rejects_disconnected(self, default_params):
        with pytest.raises(FragmentationError):
            fragment(parse_smiles("CCO.CCN"), default_params)

    def test_rejects_invalid(self, default_params):
        with pytest.raises(FragmentationError):
            fragment(parse_smiles("CC(C)(C)(C)C"), default_params)

    def test_cut_bonds_explicit(self):
        m = parse_smiles("OCCCN1CCOCC1")
        bb = find_brics_bonds(m)[0]
        fs = cut_bonds(m, [bb])
        assert len(fs.fragments) == 2


class TestRuleTable:
    def test_loads_sixteen_environments(self):
        rules = load_rules().rules
        assert len(rules) == 16
        assert [r.label for r in rules] == list(range(1, 17))

    def test_partner_symmetry(self):
        rules = {r.label: r for r in load_rules().rules}
        for r in rules.values():
            for p in r.partners:
                assert r.label in rules[p].partners

    def test_double_bond_rule_never_fires(self, corpus_lines):
        # label 7 pairs over a double bond; the engine cuts single bonds only
        for smi in corpus_lines[:50]:
            for bb in find_brics_bonds(parse_smiles(smi)):
                assert 7 not in bb.labels

    def test_asymmetric_table_rejected(self, tmp_path):
        bad = tmp_path / "rules.txt"
        bad.write_text("1\t[C]\t2\tsingle\n2\t[N]\t3\tsingle\n3\t[O]\t2\tsingle\n")
        with pytest.raises(RuleTableError):
            load_rules(str(bad))

    def test_unknown_bond_kind_rejected(self, tmp_path):
        bad = tmp_path / "rules.txt"
        bad.write_text("1\t[C]\t2\tSingle\n2\t[N]\t1\tSingle\n")
        with pytest.raises(RuleTableError, match=":1: unknown bond kind 'Single'"):
            load_rules(str(bad))

    @pytest.mark.parametrize("row, message", [
        ("x\t[C]\t2\tsingle", "label 'x' is not an integer"),
        ("1\t[C]\t2;3\tsingle", "partners '2;3' are not integers"),
        ("1\t[C\t2\tsingle", "pattern '[C': "),
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, row, message):
        bad = tmp_path / "rules.txt"
        bad.write_text(f"# header\n2\t[N]\t1\tsingle\n{row}\n")
        with pytest.raises(RuleTableError, match=re.escape(f"{bad}:3: {message}")):
            load_rules(str(bad))

    def test_bad_label_rejected(self, tmp_path):
        bad = tmp_path / "rules.txt"
        bad.write_text("99\t[C]\t99\tsingle\n")
        with pytest.raises(RuleTableError):
            load_rules(str(bad))

    def test_custom_table_usable(self, tmp_path):
        table = tmp_path / "rules.txt"
        table.write_text("4\t[C;!D1;!$(C=*)]\t5\tsingle\n5\t[N;!D1;!$(N=*)]\t4\tsingle\n")
        rules = load_rules(str(table))
        bonds = find_brics_bonds(parse_smiles("OCCCN1CCOCC1"), rules)
        assert len(bonds) == 1

    def test_table_rewritten_in_place_loads_its_new_rules(self, tmp_path):
        table = tmp_path / "rules.txt"
        table.write_text("1\t[C]\t2\tsingle\n2\t[N]\t1\tsingle\n")
        assert [r.pattern.text for r in load_rules(str(table)).rules] == ["[C]", "[N]"]
        table.write_text("1\t[O]\t2\tsingle\n2\t[S]\t1\tsingle\n")
        rules = load_rules(str(table))
        assert [r.pattern.text for r in rules.rules] == ["[O]", "[S]"]
        assert [bb.labels for bb in find_brics_bonds(parse_smiles("COSC"), rules)] == [(1, 2)]
