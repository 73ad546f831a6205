import pytest
from hypothesis import given, strategies as st

from fragsmith.metrics import _KEY_PATTERNS
from fragsmith.molgraph import AROMATIC, DOUBLE, SINGLE, TRIPLE, parse_smiles
from fragsmith.patterns import PatternError, compile_pattern, has_match, match_at

from oracles import bond_expr_reference


def indices(pattern_text, smiles):
    p = compile_pattern(pattern_text)
    m = parse_smiles(smiles)
    return [i for i in range(len(m.atoms)) if match_at(p, m, i)]


def test_element_and_degree():
    assert indices("[C;D3]", "CC(C)C") == [1]
    assert indices("[C;D1]", "CC(C)C") == [0, 2, 3]


def test_acyl_environment():
    # acetanilide: the carbonyl carbon only
    assert indices("[C;D3]([#0,#6,#7,#8])(=O)", "CC(=O)Nc1ccccc1") == [1]


def test_recursive_and_negation():
    assert indices("[N;!R;$(N[C]=O)]", "CC(=O)Nc1ccccc1") == [3]
    assert indices("[N;!$(N[C]=O)]", "NCC(=O)NC")[0] == 0


def test_aromatic_primitives():
    assert indices("[c;$(c(:c):c)]", "c1ccccc1") == [0, 1, 2, 3, 4, 5]
    assert indices("n", "c1ccncc1") == [3]
    assert indices("a", "Cc1ccccc1") == [1, 2, 3, 4, 5, 6]
    assert indices("A", "Cc1ccccc1") == [0]


def test_charge_primitive():
    assert indices("[N;+1]", "[N+](=O)([O-])C") == [0]
    assert indices("[O;-]", "[N+](=O)([O-])C") == [2]
    assert indices("[n;+0]", "c1ccncc1") == [3]


def test_hydrogen_count():
    assert indices("[N;H2]", "NCC") == [0]
    assert indices("[C;H3]", "CCO") == [0]


def test_ring_primitives():
    assert indices("[C;R]", "CC1CC1") == [1, 2, 3]
    assert indices("[C;R0]", "CC1CC1") == [0]


def test_bond_primitives():
    assert indices("C=O", "CC(=O)OC") == [1]
    assert indices("[O;D2]", "CC(=O)OC") == [3]
    # ring-bond constraint: exocyclic N-C does not satisfy N@C
    assert indices("[N;$(N@C)]", "CN1CCC1") == [1]
    assert indices("C#C", "CC#C") == [1, 2]
    # single-bond between two aromatic atoms (biphenyl junction)
    assert indices("c-c", "c1ccc(-c2ccccc2)cc1") == [3, 4]


def test_or_alternatives():
    assert indices("[N,O]", "NCO") == [0, 2]
    assert indices("[#7,#8]", "NCO") == [0, 2]


def test_dummy_atomic_number_zero():
    assert indices("[#0]", "[1*]CC") == [0]


def test_ring_closure_pattern():
    assert has_match(compile_pattern("C1CCCCC1"), parse_smiles("C1CCCCC1"))
    assert has_match(compile_pattern("C1CCCCC1"), parse_smiles("CC1CCCCC1"))
    assert not has_match(compile_pattern("C1CCCCC1"), parse_smiles("C1CCCC1"))
    assert has_match(compile_pattern("N1CCOCC1"), parse_smiles("OCCCN1CCOCC1"))


def test_two_letter_shorthand_outside_brackets():
    # "Sc" is sulfur + aromatic carbon, not scandium
    assert indices("Sc", "CSc1ccccc1") == [1]
    assert indices("Cl", "ClCC") == [0]


def test_branch_pattern():
    assert indices("[S;D4](=O)(=O)", "CS(=O)(=O)N") == [1]


@pytest.mark.parametrize(
    "bad",
    ["", "[C", "C(", "C)", "[C;]", "[;C]", "[!]", "[$C]", "[D]", "1CC",
     "C1CC", "[Zz]", "=C", "[#６]", "[D²]"],
)
def test_pattern_errors(bad):
    with pytest.raises(PatternError):
        compile_pattern(bad)


def test_root_hint_extraction():
    assert compile_pattern("[C;D3]").root_kind == ("C", False)
    assert compile_pattern("c1ccccc1").root_kind == ("C", True)
    assert compile_pattern("[C,N]").root_kind is None
    assert compile_pattern("[#6]").root_kind is None
    assert compile_pattern("[Se]").root_kind == ("Se", False)
    assert compile_pattern("Sc").root_kind == ("S", False)


# ``Pattern.required`` keys: an atom kind (element, aromatic), a ring
# node's (kind, "@") and a bond_kind (kind, order, kind).
def atom_kinds(text):
    return {k: n for k, n in compile_pattern(text).required.items() if isinstance(k[0], str)}


def ring_kinds(text):
    return {k[0]: n for k, n in compile_pattern(text).required.items() if k[1:] == ("@",)}


def bond_kinds(text):
    return {k: n for k, n in compile_pattern(text).required.items() if len(k) == 3}


def test_required_atom_kinds():
    assert atom_kinds("c1ccncc1") == {("C", True): 5, ("N", True): 1}
    assert atom_kinds("[C;D3](=O)[O;H1]") == {("C", False): 1, ("O", False): 2}
    assert atom_kinds("[N;!R;$(N[C]=O)]") == {("N", False): 1}
    assert atom_kinds("[C,C;R]") == {("C", False): 1}
    assert compile_pattern("[C,N]").required == {}
    assert compile_pattern("[!C]").required == {}
    assert atom_kinds("[#6]O") == {("O", False): 1}
    assert compile_pattern("[#6]O").root_kind is None


def test_filtered_has_match_equals_scan_of_every_atom(corpus_lines):
    patterns = [compile_pattern(t) for t in _KEY_PATTERNS]
    for smi in corpus_lines:
        m = parse_smiles(smi)
        for p in patterns:
            every_atom = any(match_at(p, m, i) for i in range(len(m.atoms)))
            assert has_match(p, m) == every_atom, (p.text, smi)


def test_required_bonds_and_ring_kinds():
    c, o, ar = ("C", False), ("O", False), ("C", True)
    assert bond_kinds("C=O") == {(c, DOUBLE, o): 1}
    assert bond_kinds("O=C=O") == {(c, DOUBLE, o): 2}
    assert bond_kinds("CC#C") == {(c, TRIPLE, c): 1}
    # a closure repeating its anchor bond is one molecule bond
    assert bond_kinds("C=1=O1") == {(c, DOUBLE, o): 1}
    assert bond_kinds("[C,N]=O") == {}
    assert bond_kinds("C=;@C") == {}
    assert ring_kinds("c1ccccc1") == {ar: 6}
    assert ring_kinds("CC1CC1C") == {c: 3}
    assert ring_kinds("[#6]1CC1") == {c: 2}
    assert ring_kinds("C1C1") == {}


@pytest.mark.parametrize("text", ["C11", "CC11", "C(C11)O"])
def test_ring_closure_onto_its_own_node_rejected(text):
    with pytest.raises(PatternError, match="to itself"):
        compile_pattern(text)


@pytest.mark.parametrize("text", ["C-1CCC=1", "C=1CCC-1", "C-1CCC-,=1", "C@1CCC!@1"])
def test_conflicting_ring_closure_bonds_rejected(text):
    with pytest.raises(PatternError, match="conflicting bonds on ring closure 1"):
        compile_pattern(text)


def test_ring_closure_bond_at_either_or_both_digits():
    for text in ("C=1CCC=1", "C1CCC=1", "C=1CCC1"):
        assert has_match(compile_pattern(text), parse_smiles("C1CCC=1")), text
        assert not has_match(compile_pattern(text), parse_smiles("C1CCC1")), text


# Bond expressions share the atoms' operator table: '!' binds tightest,
# then '&' and juxtaposition, then ',', then ';'.
def test_and_binds_tighter_than_or_in_bonds():
    assert indices("C-&@,=C", "CC=CC") == [1, 2]
    assert indices("C=,-&@C", "CC=CC") == [1, 2]
    assert indices("C-&@,=C", "CCCC") == []


def test_juxtaposed_bond_primitives():
    assert indices("C-@C", "CC1CC1") == [1, 2, 3]
    assert indices("C-!@C", "CC1CC1") == [0, 1]


@pytest.mark.parametrize(
    "bad",
    ["C;C", "C&C", "C,C", "C-;C", "C;-C", "C-&C", "C&-C", "C-&&@C", "C!;-C", "C-,!C",
     "[C&]", "[&C]", "[C&&N]", "[C,&N]", "[!;C]"],
)
def test_empty_terms_rejected(bad):
    with pytest.raises(PatternError):
        compile_pattern(bad)


# Single, double and aromatic bonds in a ring and outside one, and an
# acyclic triple bond.
_BOND_MOLECULES = [
    parse_smiles(s)
    for s in ("CC1CC1C=C", "C1=CCCC1", "c1ccccc1-c1ccccc1", "c1ccccc1:c1ccccc1", "CC#N")
]

# A run of juxtaposed primitives, each after zero to two '!'.
_bond_terms = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from("-=#:~@")), min_size=1, max_size=3
).map(lambda run: "".join("!" * n + prim for n, prim in run))
_bond_exprs = st.lists(
    st.lists(st.lists(_bond_terms, min_size=1, max_size=3).map("&".join), min_size=1, max_size=3)
    .map(",".join),
    min_size=1, max_size=3,
).map(";".join)


def test_bond_molecules_cover_every_kind():
    kinds = {
        (m.bonds[bi].order, m.ring_bonds >> bi & 1 == 1)
        for m in _BOND_MOLECULES for bi in range(len(m.bonds))
    }
    wanted = {(order, ring) for order in (SINGLE, DOUBLE, AROMATIC) for ring in (False, True)}
    assert wanted | {(TRIPLE, False)} <= kinds


@given(_bond_exprs)
def test_bond_expressions_follow_the_operator_table(expr):
    bond_test = compile_pattern(f"*{expr}*").nodes[1].anchor[1]
    for m in _BOND_MOLECULES:
        for bi in range(len(m.bonds)):
            assert bond_test(m, bi) == bond_expr_reference(expr, m, bi), (expr, m.source_text, bi)
