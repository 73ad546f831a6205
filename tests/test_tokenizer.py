import random
import re

import pytest
from hypothesis import given, strategies as st

from fragsmith.brics import cut_bonds, find_brics_bonds, fragment
from fragsmith.molgraph import canonical_smiles, parse_smiles, randomized_smiles
from fragsmith.tokenizer import (
    DUMMY_TOKENS,
    FRAGMENT_SET,
    MOLECULE,
    SPECIAL_TOKENS,
    DuplicateTokenError,
    MalformedGroupError,
    TokenizerError,
    TokenStream,
    UnknownTokenIdError,
    UntokenizableError,
    Vocab,
    build_vocab,
    detokenize,
    payload_length,
    tokenize,
)

from oracles import tokenize_longest_match


class TestBuildVocab:
    def test_default_class_counts(self, vocab):
        counts = vocab.class_counts()
        assert counts["dummy"] == 16
        assert counts["special"] == 4
        assert counts["group"] == 180
        assert counts["base"] > 0

    def test_dummy_tokens_enumerated(self, vocab):
        for tok in DUMMY_TOKENS:
            assert tok in vocab.lookup
        assert DUMMY_TOKENS[0] == "[1*]"
        assert DUMMY_TOKENS[-1] == "[16*]"

    def test_special_tokens(self, vocab):
        for tok in SPECIAL_TOKENS:
            assert tok in vocab.lookup

    def test_ids_dense(self, vocab):
        assert sorted(vocab.lookup.values()) == list(range(len(vocab.tokens)))

    def test_empty_group_file(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("# nothing here\n")
        v = build_vocab(group_file=path)
        assert v.class_counts().get("group", 0) == 0
        ts = tokenize("CCO", v, MOLECULE)
        assert detokenize(ts, v) == "CCO"

    def test_duplicate_group_raises(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("c1ccccc1\nc1ccccc1\n")
        with pytest.raises(DuplicateTokenError):
            build_vocab(group_file=path)

    def test_group_colliding_with_dummy_raises(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("[1*]\n")
        with pytest.raises(DuplicateTokenError):
            build_vocab(group_file=path)

    @pytest.mark.parametrize("text, line, entry", [
        ("c1ccccc1\n# again\nc1ccccc1\n", 3, "c1ccccc1"),
        ("[16*]\n", 1, "[16*]"),
        ("Cl\n", 1, "Cl"),
    ])
    def test_duplicate_group_names_path_and_line(self, tmp_path, text, line, entry):
        path = tmp_path / "groups.txt"
        path.write_text(text)
        with pytest.raises(DuplicateTokenError, match=re.escape(f"{path}:{line}: duplicate token {entry!r}")):
            build_vocab(group_file=path)

    @pytest.mark.parametrize("entry", ["C(F", "C)F", "[nH", "C?O", "Çl"])
    def test_malformed_group_raises(self, entry, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text(entry + "\n")
        with pytest.raises(MalformedGroupError):
            build_vocab(group_file=path)


    def test_load_rejects_sparse_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tbase\tC\n2\tbase\tN\n")
        with pytest.raises(Exception):
            Vocab.load(path)

    def test_load_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tbase\n")
        with pytest.raises(Exception):
            Vocab.load(path)

    @pytest.mark.parametrize("token, cls", [("CC", "base"), ("", "base"), ("[1*]C", "dummy")])
    def test_non_group_token_must_be_one_unit(self, vocab, token, cls):
        tokens, classes = (*vocab.tokens, token), (*vocab.classes, cls)
        with pytest.raises(TokenizerError, match="not exactly one atom unit"):
            Vocab(tokens=tokens, classes=classes)

    def test_ring_label_digits_are_ascii(self, vocab):
        # "%" + two Arabic-Indic digits: three units, not a ring label.
        tokens, classes = (*vocab.tokens, "%\u0661\u0662"), (*vocab.classes, "base")
        with pytest.raises(TokenizerError, match="not exactly one atom unit"):
            Vocab(tokens=tokens, classes=classes)

    def test_load_rejects_a_multi_unit_base_token(self, vocab, tmp_path):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{len(vocab.tokens)}\tbase\tNC\n")
        with pytest.raises(TokenizerError, match="'NC' is not exactly one atom unit"):
            Vocab.load(path)

    def test_load_rejects_an_unknown_class(self, vocab, tmp_path):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{len(vocab.tokens)}\tbogus\t[K+]\n")
        where = f"{path}:{len(vocab.tokens) + 1}"
        with pytest.raises(TokenizerError, match=f"^{re.escape(where)}: unknown token class 'bogus'$"):
            Vocab.load(path)

    def test_save_load_stable(self, vocab, tmp_path):
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.classes == vocab.classes
        s = "CC(=O)Nc1ccccc1"
        assert tokenize(s, loaded, MOLECULE) == tokenize(s, vocab, MOLECULE)


class TestTokenize:
    def test_dummy_fragment_example(self, vocab):
        ts = tokenize("[1*]CCO", vocab, FRAGMENT_SET)
        assert [vocab.tokens[i] for i in ts.tokens] == [
            "<BOF>", "[1*]", "C", "C", "O", "<EOF>",
        ]

    def test_empty_input(self, vocab):
        ts = tokenize("", vocab, MOLECULE)
        assert len(ts.tokens) == 2
        assert detokenize(ts, vocab) == ""

    def test_dot_components_framed(self, vocab):
        ts = tokenize("CCO.CCN", vocab, MOLECULE)
        names = [vocab.tokens[i] for i in ts.tokens]
        assert names.count("<BOM>") == 2
        assert names.count("<EOM>") == 2
        assert detokenize(ts, vocab) == "CCO.CCN"

    def test_mnemonic_pairing_default(self, vocab):
        mol = tokenize("C", vocab, MOLECULE)
        assert vocab.tokens[mol.tokens[0]] == "<BOM>"
        frag = tokenize("C", vocab, FRAGMENT_SET)
        assert vocab.tokens[frag.tokens[0]] == "<BOF>"

    def test_paper_pairing_switch(self, vocab):
        mol = tokenize("C", vocab, MOLECULE, special_pairing="paper")
        assert vocab.tokens[mol.tokens[0]] == "<BOF>"
        frag = tokenize("C", vocab, FRAGMENT_SET, special_pairing="paper")
        assert vocab.tokens[frag.tokens[0]] == "<BOM>"

    def test_unknown_pairing_rejected(self, vocab):
        with pytest.raises(ValueError):
            tokenize("C", vocab, MOLECULE, special_pairing="whatever")

    def test_bad_kind_rejected(self, vocab):
        with pytest.raises(ValueError):
            tokenize("C", vocab, "sentence")

    def test_two_digit_dummy_single_token(self, vocab):
        ts = tokenize("[10*]CC", vocab, FRAGMENT_SET)
        assert vocab.tokens[ts.tokens[1]] == "[10*]"

    def test_two_letter_element_single_token(self, vocab):
        ts = tokenize("ClCC", vocab, MOLECULE)
        assert vocab.tokens[ts.tokens[1]] == "Cl"

    def test_exotic_bracket_falls_back_losslessly(self, vocab):
        for s in ["C[13CH3]", "[Na+].[Cl-]", "[Fe+2]"]:
            ts = tokenize(s, vocab, MOLECULE)
            assert detokenize(ts, vocab) == s

    def test_untokenizable_character(self, vocab):
        with pytest.raises(UntokenizableError):
            tokenize("C?O", vocab, MOLECULE)

    def test_group_token_used(self, vocab):
        ts = tokenize("CC(F)(F)F", vocab, MOLECULE)
        names = [vocab.tokens[i] for i in ts.tokens]
        assert "C(F)(F)F" in names

    def test_group_never_splits_an_atom(self, vocab):
        # "Cl" must never be eaten as a "C"-ending group plus dangling "l"
        ts = tokenize("CCl", vocab, MOLECULE)
        names = [vocab.tokens[i] for i in ts.tokens]
        assert names == ["<BOM>", "C", "Cl", "<EOM>"]

    def test_payload_length_excludes_framing(self, vocab):
        ts = tokenize("CCO.CCN", vocab, MOLECULE)
        assert payload_length(ts, vocab) == len(ts.tokens) - 4


class TestDetokenize:
    def test_round_trip_corpus(self, vocab, corpus_lines):
        for smi in corpus_lines[:80]:
            ts = tokenize(smi, vocab, MOLECULE)
            assert detokenize(ts, vocab) == smi

    def test_round_trip_randomized_serializations(self, vocab, corpus_lines):
        rng = random.Random(9)
        for smi in rng.sample(corpus_lines, 20):
            m = parse_smiles(smi)
            for seed in range(3):
                alt = randomized_smiles(m, seed)
                ts = tokenize(alt, vocab, MOLECULE)
                assert detokenize(ts, vocab) == alt

    def test_round_trip_fragment_payloads(self, vocab, corpus_lines, default_params):
        for smi in corpus_lines[:20]:
            fs = fragment(parse_smiles(smi), default_params)
            payload = ".".join(f.source_text for f in fs.fragments)
            ts = tokenize(payload, vocab, FRAGMENT_SET)
            assert detokenize(ts, vocab) == payload

    def test_unknown_id_raises(self, vocab):
        ts = TokenStream(tokens=(0, 10**6))
        with pytest.raises(UnknownTokenIdError):
            detokenize(ts, vocab)

    def test_trailing_and_leading_dots(self, vocab):
        for s in ["CCO.", ".CCO", "C..C"]:
            ts = tokenize(s, vocab, MOLECULE)
            assert detokenize(ts, vocab) == s


_BRACKET_HEAVY = [
    "[13CH3][N+](C)(C)[O-]", "[nH]1cccc1", "C[Se]C", "[2H]C([2H])([2H])O",
    "[CH2-]C", "[Cu+2].[O-]S(=O)(=O)[O-]", "[12*]c1ccc([3*])cc1",
    "[NH3+]CC(=O)[O-]", "[Si](C)(C)(C)Cl", "[C@@H](N)(C)C(=O)O", "F/C=C/F",
    "[11CH4]", "[Fe+3]", "C%10CC%10", "[se]1cccc1", "[o+]1ccccc1",
    "[N+]#[C-]", "Brc1ccc(Cl)cc1Br", "[*]C", "[16*]N[5*]", "[NH2+]=C([NH2])N",
    "[O-][n+]1ccccc1", "[Na+].[Cl-]", "C[N+](C)(C)CC(=O)[O-]", "[B-](F)(F)(F)F",
]


class TestLongestMatchOracle:
    def _check(self, vocab, text, kind):
        begin, end = ("<BOM>", "<EOM>") if kind == MOLECULE else ("<BOF>", "<EOF>")
        expected = tokenize_longest_match(
            text, vocab, vocab.tokens.index(begin), vocab.tokens.index(end)
        )
        assert list(tokenize(text, vocab, kind).tokens) == expected, text

    def test_corpus_molecules_and_fragment_payloads(self, vocab, corpus_lines):
        for smi in corpus_lines:
            m = parse_smiles(smi)
            self._check(vocab, smi, MOLECULE)
            self._check(vocab, canonical_smiles(m), MOLECULE)
            fs = cut_bonds(m, find_brics_bonds(m))
            self._check(vocab, ".".join(f.source_text for f in fs.fragments), FRAGMENT_SET)

    def test_randomized_serializations(self, vocab, corpus_lines):
        for smi in corpus_lines[:200]:
            self._check(vocab, randomized_smiles(parse_smiles(smi), 5), MOLECULE)

    @pytest.mark.parametrize("text", _BRACKET_HEAVY)
    def test_bracket_heavy(self, vocab, text):
        self._check(vocab, text, MOLECULE)
        self._check(vocab, text, FRAGMENT_SET)


class TestCompression:
    def _base_only(self, vocab):
        tokens, classes = [], []
        for tok, cls in zip(vocab.tokens, vocab.classes):
            if cls != "group":
                tokens.append(tok)
                classes.append(cls)
        return Vocab(tokens=tuple(tokens), classes=tuple(classes))

    def test_groups_never_increase_token_count(self, vocab, corpus_lines):
        base = self._base_only(vocab)
        for smi in corpus_lines[:120]:
            with_groups = len(tokenize(smi, vocab, MOLECULE).tokens)
            without = len(tokenize(smi, base, MOLECULE).tokens)
            assert with_groups <= without, smi

    def test_compression_actually_helps_somewhere(self, vocab, corpus_lines):
        base = self._base_only(vocab)
        gains = sum(
            len(tokenize(s, base, MOLECULE).tokens)
            - len(tokenize(s, vocab, MOLECULE).tokens)
            for s in corpus_lines[:120]
        )
        assert gains > 0

    @given(st.text(alphabet="CNOSconsp123()=#-[]+*@%/\\.FIB", max_size=40))
    def test_group_monotonicity_on_arbitrary_text(self, vocab, text):
        base = self._base_only(vocab)
        try:
            with_groups = len(tokenize(text, vocab, MOLECULE).tokens)
        except UntokenizableError:
            return
        without = len(tokenize(text, base, MOLECULE).tokens)
        assert with_groups <= without


# Atom units, stated here apart from the package: a bracket expression,
# a two-digit ring closure, Cl, Br, or any one character.
_UNIT = re.compile(r"\[[^\[\]]*\]|%[0-9][0-9]|Cl|Br|.", re.S)


def _spec_encode(text: str, vocab: Vocab) -> list[int]:
    """The tokenizer's rule for one dot-free component, by brute force.

    At each unit boundary, the longest non-special token, found by
    scanning the whole vocabulary, that the text continues with and that
    ends on a unit boundary; when there is none and the unit there is a
    bracket unit, its characters one at a time."""
    units = _UNIT.findall(text)
    starts = [0]
    for u in units:
        starts.append(starts[-1] + len(u))
    bounds = set(starts)
    ids, k = [], 0
    while k < len(units):
        at = starts[k]
        best = None
        for idx, (tok, cls) in enumerate(zip(vocab.tokens, vocab.classes)):
            if cls == "special" or not tok or not text.startswith(tok, at) or at + len(tok) not in bounds:
                continue
            if best is None or len(tok) > len(vocab.tokens[best]):
                best = idx
        if best is not None:
            ids.append(best)
            k = starts.index(at + len(vocab.tokens[best]))
        elif units[k].startswith("["):
            for ch in units[k]:
                ids.append(vocab.tokens.index(ch))
            k += 1
        else:
            raise UntokenizableError(units[k])
    return ids


def _spec_inputs(vocab, corpus_lines):
    texts = list(corpus_lines)
    for smi in corpus_lines[:300]:
        m = parse_smiles(smi)
        texts += [f.source_text for f in cut_bonds(m, find_brics_bonds(m)).fragments]
    texts += [tok for tok, cls in zip(vocab.tokens, vocab.classes) if cls == "group"]
    return texts + ["[13CH3]", "C[13CH3]", "[Fe+2]", "[Fe+2].[Cl-]", "[2H]C([2H])([2H])O", "[C@@H](N)Cl"]


def _stop_at_first_terminal(node: dict) -> dict:
    """A copy of a trie node whose walk ends at its first token."""
    if "" in node:
        return {"": node[""]}
    return {unit: _stop_at_first_terminal(child) for unit, child in node.items()}


def _agrees_with_spec(text: str, v: Vocab, spec_vocab: Vocab) -> bool:
    begin, end = v.id_of("<BOF>"), v.id_of("<EOF>")
    expected = [i for comp in text.split(".") for i in (begin, *_spec_encode(comp, spec_vocab), end)]
    return list(tokenize(text, v, FRAGMENT_SET).tokens) == expected


class TestTokenizerEqualsBruteForceSpec:
    def test_corpus_payloads_groups_and_brackets(self, vocab, corpus_lines):
        for text in _spec_inputs(vocab, corpus_lines):
            assert _agrees_with_spec(text, vocab, vocab), text

    def test_spec_sees_a_trie_that_stops_at_the_first_token(self, vocab, corpus_lines):
        broken = build_vocab()
        vars(broken)["trie"] = _stop_at_first_terminal(broken.trie)
        texts = _spec_inputs(vocab, corpus_lines)
        assert sum(not _agrees_with_spec(t, broken, vocab) for t in texts) > len(texts) // 2
