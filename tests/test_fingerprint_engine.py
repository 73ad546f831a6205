"""The fingerprint walk and the pattern matcher against their first
written forms (``oracles.path_hashes_reference`` and
``oracles.match_at_reference``), and the filtered ``has_match`` against a
scan of every atom with the reference matcher.

The graphs are a sample of the fixture corpus, a randomized
serialization of each, their BRICS fragments (with dummy atoms),
dot-joined mixtures, the benchmark's cubic cages and hypothesis-built
graphs.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given

from fragsmith.brics import cut_bonds, find_brics_bonds, load_rules
from fragsmith.metrics import _KEY_PATTERNS, _path_hashes
from fragsmith.molgraph import parse_smiles, randomized_smiles
from fragsmith.patterns import compile_pattern, has_match, match_at

from oracles import match_at_reference, path_hashes_reference
from test_random_graphs import molecule_graphs

KEY_PATTERNS = [compile_pattern(t) for t in _KEY_PATTERNS]
RULE_PATTERNS = [r.pattern for r in load_rules().rules]

# Ring closures (including ones parallel to an anchor bond), plain and
# constrained =/# bonds, $() and ! in one list.
CUSTOM_PATTERNS = [compile_pattern(t) for t in [
    "C1CCCCC1=O", "O=C1CCCC1", "C=1CCCC1", "C1=CC=CC=C1", "c1ccc2ccccc2c1",
    "C12CCC1CC2", "[C;R]1CC[N,O]C1", "[!C;R]1CCCC1", "c1ccccc1C#N", "N#CC",
    "C#C", "N=C=N", "O=C=O", "[#6]=[#8]", "[C,N]=O", "C=;!@C", "C=;@C",
    "[$(C=O)]N", "[C;!$(C=O)]1CCOC1", "[N;!R]C(=O)", "S(=O)(=O)1CCCC1",
    "C=1=O1", "C1C1", "C1CC1C=C", "[c;$(c1ccccc1)]C=O",
    "c1cc(C=O)ccc1", "*1***1", "[N+](=O)[O-]",
]]

ALL_PATTERNS = KEY_PATTERNS + RULE_PATTERNS + CUSTOM_PATTERNS

# Molecules that give the custom patterns hits: each has a ring, a =/#
# bond or both.
EXTRA_SMILES = [
    "N#Cc1ccccc1", "CC#N", "CC#CC", "O=S1(=O)CCCC1", "O=C1CCCCC1", "C1=CCCC1",
    "C1CC2CCC12", "c1ccc2ccccc2c1", "O=C=O", "CN=C=NC", "C=CC1CC1",
    "OC1CCOC1", "O=Cc1ccccc1", "O=C1CCCN1", "[O-][N+](=O)c1ccccc1",
    "C1COCN1", "C=C1CCC(=O)C1",
]


def _cage_smiles():
    root = Path(__file__).resolve().parents[1] / "perfbench"
    if str(root) not in sys.path:
        sys.path.append(str(root))
    import gen

    return [s for pair in gen.cage_pairs() for s in pair]


@pytest.fixture(scope="module")
def graphs(corpus_lines):
    out = []
    sample = corpus_lines[::25]
    for k, smi in enumerate(sample):
        m = parse_smiles(smi)
        fs = cut_bonds(m, find_brics_bonds(m))
        out += [m, parse_smiles(randomized_smiles(m, k)), *fs.fragments]
        out.append(parse_smiles(f"{smi}.{sample[k - 1]}"))
    return out + [parse_smiles(s) for s in EXTRA_SMILES + _cage_smiles()]


def _assert_walk_and_matcher_equal_reference(m, patterns):
    assert _path_hashes(m) == path_hashes_reference(m), m.source_text
    for p in patterns:
        for i in range(len(m.atoms)):
            assert match_at(p, m, i) == match_at_reference(p, m, i), (
                p.text, m.source_text, i,
            )


def _assert_has_match_equals_reference_scan(m, patterns):
    for p in patterns:
        scan = any(match_at_reference(p, m, i) for i in range(len(m.atoms)))
        assert has_match(p, m) == scan, (p.text, m.source_text)


def test_walk_and_matcher_equal_reference(graphs):
    for m in graphs:
        _assert_walk_and_matcher_equal_reference(m, ALL_PATTERNS)


@given(molecule_graphs())
def test_walk_and_matcher_equal_reference_random_graphs(m):
    _assert_walk_and_matcher_equal_reference(m, ALL_PATTERNS)


def test_has_match_equals_reference_scan(graphs):
    for m in graphs:
        _assert_has_match_equals_reference_scan(m, KEY_PATTERNS + CUSTOM_PATTERNS)


@given(molecule_graphs())
def test_has_match_equals_reference_scan_random_graphs(m):
    _assert_has_match_equals_reference_scan(m, KEY_PATTERNS + CUSTOM_PATTERNS)


def test_custom_patterns_match_somewhere(graphs):
    # A custom pattern that no graph matches would test only the "no"
    # side. This one cannot match: the parser reads a Kekule benzene as
    # aromatic.
    matched = {p.text for m in graphs for p in CUSTOM_PATTERNS if has_match(p, m)}
    assert {p.text for p in CUSTOM_PATTERNS} - matched == {"C1=CC=CC=C1"}
