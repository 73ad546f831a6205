"""Property tests over randomly constructed molecular graphs.

Unlike the corpus-driven tests, these build Molecule values directly
(random trees plus ring edges, bond upgrades, isotopes, dummy atoms), so
the serializer and parser are exercised on shapes no SMILES string
produced.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from fragsmith.metrics import KEYS, MORGAN, fingerprint
from fragsmith.molgraph import (
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    randomized_smiles,
    validate,
    write_smiles,
)
from fragsmith.tokenizer import MOLECULE, build_vocab, detokenize, tokenize

from oracles import graph_isomorphic

# element -> lowest standard valence (used as bonding capacity so the
# writer's implicit-hydrogen arithmetic matches the parser's)
_MENU = [("C", 4), ("N", 3), ("O", 2), ("S", 2), ("P", 3), ("F", 1), ("Cl", 1), ("Br", 1)]

_VOCAB = build_vocab()


@st.composite
def molecule_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    picks = [draw(st.sampled_from(_MENU)) for _ in range(n)]
    elements = [e for e, _ in picks]
    capacity = [v for _, v in picks]

    bonds: list[list] = []  # [a, b, order_value]
    bonded: set[tuple[int, int]] = set()
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        if capacity[i] >= 1 and capacity[parent] >= 1:
            bonds.append([parent, i, 1])
            bonded.add((parent, i))
            capacity[i] -= 1
            capacity[parent] -= 1
        # else: the atom stays disconnected, which is legal

    # upgrade some bonds to double/triple where capacity allows
    for bond in bonds:
        a, b, _ = bond
        for _ in range(2):
            if capacity[a] >= 1 and capacity[b] >= 1 and draw(st.booleans()):
                bond[2] += 1
                capacity[a] -= 1
                capacity[b] -= 1

    # a few ring-closing single bonds
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        options = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if capacity[i] >= 1 and capacity[j] >= 1 and (i, j) not in bonded
        ]
        if not options:
            break
        i, j = draw(st.sampled_from(options))
        bonds.append([i, j, 1])
        bonded.add((i, j))
        capacity[i] -= 1
        capacity[j] -= 1

    atoms = []
    for i, (element, lowest) in enumerate(picks):
        isotope = draw(st.sampled_from([None, None, None, 13]))
        atoms.append(
            Atom(element=element, isotope=isotope, h_total=capacity[i])
        )
    # occasionally append a dummy atom bonded to atom 0
    if draw(st.booleans()) and capacity and atoms:
        label = draw(st.integers(min_value=1, max_value=16))
        # re-derive atom 0 with one less hydrogen to make room
        a0 = atoms[0]
        if a0.h_total >= 1:
            atoms[0] = Atom(
                element=a0.element, isotope=a0.isotope, h_total=a0.h_total - 1
            )
            atoms.append(Atom(element="*", link_label=label))
            bonds.append([0, len(atoms) - 1, 1])

    order_name = {1: SINGLE, 2: DOUBLE, 3: TRIPLE}
    raw = Molecule(
        atoms=tuple(atoms),
        bonds=tuple(
            Bond(a, b, order_name[o]) for a, b, o in bonds
        ),
        source_text="",
    )
    # One write/parse pass applies the same ring normalization every
    # parsed molecule gets (e.g. heteroatom rings the parser perceives as
    # aromatic); the public contracts are stated over parsed molecules.
    return parse_smiles(write_smiles(raw))


@given(molecule_graphs())
@settings(max_examples=150)
def test_write_parse_round_trip(mol):
    text = write_smiles(mol)
    back = parse_smiles(text)
    assert graph_isomorphic(mol, back), text


@given(molecule_graphs(), st.integers(min_value=0, max_value=999))
@settings(max_examples=120)
def test_canonical_invariant_under_randomized_serialization(mol, seed):
    reference = canonical_smiles(mol)
    alt = randomized_smiles(mol, seed)
    assert canonical_smiles(parse_smiles(alt)) == reference, (reference, alt)


@given(molecule_graphs())
@settings(max_examples=100)
def test_constructed_graphs_are_valid(mol):
    assert validate(mol).valid
    assert molecular_weight(mol) >= 0.0


@given(molecule_graphs())
@settings(max_examples=100)
def test_canonical_output_is_tokenizable(mol):
    # coverage invariant: anything the canonical writer can emit (dummy
    # atoms and isotopes included) tokenizes and round-trips
    text = canonical_smiles(mol)
    ts = tokenize(text, _VOCAB, MOLECULE)
    assert detokenize(ts, _VOCAB) == text


@given(molecule_graphs(), st.integers(min_value=0, max_value=99))
@settings(max_examples=60)
def test_fingerprints_are_graph_invariants(mol, seed):
    if not validate(mol).valid:
        return
    alt = parse_smiles(randomized_smiles(mol, seed))
    for scheme in (MORGAN, KEYS):
        assert fingerprint(mol, scheme) == fingerprint(alt, scheme)
