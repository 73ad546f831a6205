import random

import pytest
from hypothesis import example, given, strategies as st

from fragsmith.metrics import (
    KEY_TABLE_SIZE,
    KEYS,
    MORGAN,
    PATH,
    EvalReport,
    FingerprintBitset,
    FingerprintError,
    bleu,
    evaluate,
    exact_match,
    fingerprint,
    levenshtein,
    tanimoto,
    topk_accuracy,
)
from fragsmith.molgraph import (
    SmilesError,
    canonical_smiles,
    parse_smiles,
    randomized_smiles,
    validate,
)

from oracles import bleu_reference, levenshtein_matrix


class TestExactMatch:
    def test_benzene_forms(self):
        assert exact_match("c1ccccc1", "C1=CC=CC=C1") == 1

    def test_reflexive(self, corpus_lines):
        for s in corpus_lines[:10]:
            assert exact_match(s, s) == 1

    def test_unparseable_scores_zero(self):
        assert exact_match("not-smiles", "CCO") == 0
        assert exact_match("CCO", "not-smiles") == 0

    def test_symmetric(self):
        assert exact_match("OCC", "CCO") == exact_match("CCO", "OCC") == 1

    def test_invalid_valence_scores_zero(self):
        assert exact_match("CC(C)(C)(C)C", "CC(C)(C)(C)C") == 0

    def test_component_order_ignored(self):
        assert exact_match("CCO.CCN", "CCN.CCO") == 1


class TestLevenshtein:
    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3

    @given(st.text(max_size=25), st.text(max_size=25))
    def test_matches_matrix_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_matrix(a, b)

    # A small alphabet keeps long strings similar, so the bit vectors of
    # the bit-parallel algorithm span several 64-bit words and carry.
    @given(
        st.text(alphabet="Cc1(=)é中", max_size=150),
        st.text(alphabet="Cc1(=)é中", max_size=150),
    )
    @example("", "")
    @example("", "C" * 70)
    @example("C" * 65 + "é", "C" * 64 + "中é")
    @example("c1ccccc1" * 12, "c1cc(=C)ccc1" * 9)
    def test_long_and_non_ascii_match_matrix_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_matrix(a, b)

    @given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)


class TestBleu:
    def test_identity_is_one(self):
        assert bleu("CC(=O)OCC", "CC(=O)OCC") == 1.0

    def test_empty_pred_is_zero(self):
        assert bleu("", "CCO") == 0.0

    def test_agrees_with_reference(self):
        assert bleu("CCO", "CCN") == pytest.approx(bleu_reference("CCO", "CCN"), abs=1e-9)

    @given(st.text(min_size=1, max_size=30), st.text(min_size=1, max_size=30))
    def test_reference_agreement_random(self, pred, ref):
        assert bleu(pred, ref) == pytest.approx(bleu_reference(pred, ref), abs=1e-9)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_bounded(self, pred, ref):
        assert 0.0 <= bleu(pred, ref) <= 1.0


class TestFingerprint:
    def test_deterministic(self, corpus_lines):
        m = parse_smiles(corpus_lines[0])
        for scheme in (MORGAN, PATH, KEYS):
            assert fingerprint(m, scheme) == fingerprint(m, scheme)

    def test_methane_morgan_bit_count(self):
        f = fingerprint(parse_smiles("C"), MORGAN)
        assert 1 <= f.count() <= 3

    def test_serialization_invariance_all_schemes(self, corpus_lines):
        rng = random.Random(2)
        for smi in rng.sample(corpus_lines, 8):
            m = parse_smiles(smi)
            for scheme in (MORGAN, PATH, KEYS):
                base = fingerprint(m, scheme)
                for seed in range(3):
                    alt = parse_smiles(randomized_smiles(m, seed))
                    assert fingerprint(alt, scheme) == base, (smi, scheme)

    def test_canonical_round_trip_same_bits(self, corpus_lines):
        # evaluate shares fingerprints between molecules with one
        # canonical SMILES, so that string must fix every fingerprint bit.
        for smi in corpus_lines:
            m = parse_smiles(smi)
            again = parse_smiles(canonical_smiles(m))
            for scheme in (MORGAN, PATH, KEYS):
                assert fingerprint(again, scheme) == fingerprint(m, scheme), (smi, scheme)

    def test_kekule_vs_aromatic_same_bits(self):
        a = fingerprint(parse_smiles("c1ccccc1"), MORGAN)
        b = fingerprint(parse_smiles("C1=CC=CC=C1"), MORGAN)
        assert a == b

    def test_invalid_molecule_rejected(self):
        with pytest.raises(FingerprintError):
            fingerprint(parse_smiles("CC(C)(C)(C)C"), MORGAN)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(FingerprintError):
            fingerprint(parse_smiles("C"), "daylight")

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FingerprintBitset(bits=0, width=100, scheme=MORGAN)

    def test_key_table_size(self):
        assert KEY_TABLE_SIZE == 128
        f = fingerprint(parse_smiles("CCO"), KEYS)
        assert f.count() >= 1

    def test_different_molecules_differ(self):
        assert fingerprint(parse_smiles("CCO"), MORGAN) != fingerprint(
            parse_smiles("CCN"), MORGAN
        )


class TestTanimoto:
    def test_identity(self):
        f = fingerprint(parse_smiles("CCO"), MORGAN)
        assert tanimoto(f, f) == 1.0

    def test_disjoint(self):
        a = FingerprintBitset(bits=0b0011, width=16, scheme=MORGAN)
        b = FingerprintBitset(bits=0b1100, width=16, scheme=MORGAN)
        assert tanimoto(a, b) == 0.0

    def test_both_empty_is_one(self):
        a = FingerprintBitset(bits=0, width=16, scheme=MORGAN)
        assert tanimoto(a, a) == 1.0

    def test_scheme_mismatch_raises(self):
        a = fingerprint(parse_smiles("CCO"), MORGAN)
        b = fingerprint(parse_smiles("CCO"), PATH)
        with pytest.raises(FingerprintError):
            tanimoto(a, b)

    def test_width_mismatch_raises(self):
        a = fingerprint(parse_smiles("CCO"), MORGAN, width=1024)
        b = fingerprint(parse_smiles("CCO"), MORGAN, width=2048)
        with pytest.raises(FingerprintError):
            tanimoto(a, b)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_bounds_and_symmetry(self, x, y):
        a = FingerprintBitset(bits=x, width=64, scheme=MORGAN)
        b = FingerprintBitset(bits=y, width=64, scheme=MORGAN)
        s = tanimoto(a, b)
        assert 0.0 <= s <= 1.0
        assert s == tanimoto(b, a)
        assert tanimoto(a, a) == 1.0


def test_capped_fragments_resemble_their_parent(corpus_lines, default_params):
    """A molecule's carbon-capped fragments score higher against the
    molecule itself than against a random unrelated molecule for at
    least 95% of a 1000-molecule sample."""
    from fragsmith.brics import fragment
    from fragsmith.recombine import carbon_cap

    sample = corpus_lines[:1000]
    rng = random.Random(77)
    partners = list(sample)
    rng.shuffle(partners)
    wins = 0
    counted = 0
    for smi, other in zip(sample, partners):
        if smi == other:
            continue
        mol = parse_smiles(smi)
        fs = fragment(mol, default_params)
        if not fs.cleaved:
            continue
        joined = ".".join(carbon_cap(f).source_text for f in fs.fragments)
        fp_frag = fingerprint(parse_smiles(joined), MORGAN)
        t_self = tanimoto(fp_frag, fingerprint(mol, MORGAN))
        t_rand = tanimoto(fp_frag, fingerprint(parse_smiles(other), MORGAN))
        counted += 1
        wins += t_self > t_rand
    assert counted >= 800
    assert wins / counted >= 0.95, f"{wins}/{counted}"


class TestTopK:
    def test_rank_three_counts_for_k_ge_three(self):
        preds = [["CC", "CCC", "CCO"]]
        refs = ["CCO"]
        assert topk_accuracy(preds, refs, 1) == 0.0
        assert topk_accuracy(preds, refs, 2) == 0.0
        assert topk_accuracy(preds, refs, 3) == 1.0

    def test_k_beyond_list_length(self):
        assert topk_accuracy([["CCO"]], ["CCO"], 10) == 1.0

    def test_all_empty_lists(self):
        assert topk_accuracy([[], []], ["C", "N"], 5) == 0.0

    def test_k_below_one_raises(self):
        with pytest.raises(ValueError):
            topk_accuracy([["C"]], ["C"], 0)

    def test_monotone_in_k(self):
        preds = [["CC", "CCO"], ["CCN", "CC"], ["CCC", "N"]]
        refs = ["CCO", "CCN", "CCO"]
        values = [topk_accuracy(preds, refs, k) for k in range(1, 4)]
        assert values == sorted(values)

    def test_canonical_equivalence_counts(self):
        assert topk_accuracy([["OCC"]], ["CCO"], 1) == 1.0

    def test_reference_parsed_once_per_sample(self, monkeypatch):
        import fragsmith.metrics as metrics

        parsed = []
        real = metrics.parse_smiles

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(metrics, "parse_smiles", counting)
        preds = [["CC", "CCC", "CCCC", "CCN", "CCCl"]]
        assert topk_accuracy(preds, ["CCO"], 5) == 0.0
        assert len(parsed) == 6


class TestEvaluate:
    def test_identity_suite(self, corpus_lines):
        refs = [canonical_smiles(parse_smiles(s)) for s in corpus_lines[:12]]
        report = evaluate(refs, refs)
        assert report.exact == 1.0
        assert report.bleu == 1.0
        assert report.levenshtein == 0.0
        assert report.fts_path == 1.0
        assert report.fts_keys == 1.0
        assert report.fts_morgan == 1.0
        assert report.validity == 1.0
        assert report.n == 12

    def test_all_unparseable(self):
        report = evaluate(["x", "y"], ["CCO", "CCN"])
        assert report.validity == 0.0
        assert report.exact == 0.0
        assert report.fts_morgan is None
        assert report.fts_skipped == 2

    def test_invalid_as_zero_switch(self):
        report = evaluate(["x", "CCO"], ["CCO", "CCO"], invalid_as_zero=True)
        assert report.fts_morgan == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(["C"], ["C", "N"])

    def test_hand_computed_mixed_sample(self):
        preds = ["CCO", "OCC", "CCN", "bad(", "c1ccccc1"]
        refs = ["CCO", "CCO", "CCC", "CCO", "C1=CC=CC=C1"]
        report = evaluate(preds, refs)
        # exact: pairs 0,1,4 match canonically -> 3/5
        assert report.exact == pytest.approx(3 / 5)
        # validity: 4 of 5 preds parse
        assert report.validity == pytest.approx(4 / 5)
        # levenshtein against the raw strings, via the independent oracle
        expected_lev = sum(
            levenshtein_matrix(p, r) for p, r in zip(preds, refs)
        ) / 5
        assert report.levenshtein == pytest.approx(expected_lev)
        expected_bleu = sum(bleu_reference(p, r) for p, r in zip(preds, refs)) / 5
        assert report.bleu == pytest.approx(expected_bleu, abs=1e-9)
        # fts over the 4 mutually valid pairs
        per_pair = []
        for p, r in zip(preds, refs):
            if p == "bad(":
                continue
            fp = fingerprint(parse_smiles(p), MORGAN)
            fr = fingerprint(parse_smiles(r), MORGAN)
            per_pair.append(tanimoto(fp, fr))
        assert report.fts_morgan == pytest.approx(sum(per_pair) / 4)
        assert report.fts_skipped == 1

    def test_empty_lists(self):
        report = evaluate([], [])
        assert report.n == 0

    @pytest.mark.parametrize("invalid_as_zero", [False, True])
    def test_matches_per_pair_recomputation(self, corpus_lines, invalid_as_zero):
        # Repeated references, exact hits written differently, repeated
        # predictions, invalid predictions and an invalid reference, each
        # scored from scratch.
        mols = [parse_smiles(s) for s in corpus_lines[:5]]
        preds, refs = [], []
        for k in range(20):
            ref = mols[k % 5]
            refs.append(randomized_smiles(ref, k))
            if k % 4 == 0:
                preds.append(randomized_smiles(ref, k + 100))
            elif k % 4 == 1:
                preds.append(corpus_lines[20 + k % 3])
            elif k % 4 == 2:
                preds.append(canonical_smiles(ref) + "C")
            else:
                preds.append("C1CC" if k % 8 == 3 else "CC(C)(C)(C)C")
        preds.append("CCO")
        refs.append("C1CC")

        def fresh(s):
            try:
                m = parse_smiles(s)
            except SmilesError:
                return None
            return m if validate(m).valid else None

        schemes = (PATH, KEYS, MORGAN)
        sums = dict.fromkeys(schemes, 0.0)
        exact = bleu_sum = lev = valid = fts_n = 0
        for p, r in zip(preds, refs):
            valid += fresh(p) is not None
            exact += exact_match(p, r)
            bleu_sum += bleu(p, r)
            lev += levenshtein_matrix(p, r)
            if fresh(p) is not None and fresh(r) is not None:
                for s in schemes:
                    sums[s] += tanimoto(fingerprint(fresh(p), s), fingerprint(fresh(r), s))
                fts_n += 1
        n = len(preds)
        assert 0 < exact < fts_n < valid < n
        denom = n if invalid_as_zero else fts_n
        assert evaluate(preds, refs, invalid_as_zero=invalid_as_zero) == EvalReport(
            exact=exact / n,
            bleu=bleu_sum / n,
            levenshtein=lev / n,
            fts_path=sums[PATH] / denom,
            fts_keys=sums[KEYS] / denom,
            fts_morgan=sums[MORGAN] / denom,
            validity=valid / n,
            n=n,
            fts_skipped=n - fts_n,
        )

    def test_report_serialization(self):
        report = evaluate(["CCO"], ["CCO"])
        text = report.format_table()
        assert "EXACT" in text and "MORGAN FTS" in text
        assert isinstance(report.to_json(), str)
