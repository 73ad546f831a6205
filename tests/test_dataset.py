import builtins
import json

import pytest

from fragsmith.brics import FragmentParams, fragment
from fragsmith.dataset import (
    InstructionRecord,
    LibraryFormatError,
    MissingSlotError,
    MoleculeLibrary,
    PairCounters,
    emit_jsonl,
    fill_template,
    load_templates,
    make_finetune_pairs,
    make_pretrain_pairs,
    preprocess,
    read_dataset,
    read_reactions,
)
from fragsmith.molgraph import canonical_smiles, parse_smiles
from fragsmith.recombine import rejoin
from conftest import REACTIONS_PATH


class TestPreprocess:
    def test_dedup_on_canonical_form(self, vocab):
        lib = preprocess(["CCO", "OCC", "CCO"], vocab)
        assert lib.stats.kept == 1
        assert lib.stats.duplicates == 2

    def test_weight_filter(self, vocab):
        heavy = "C" * 90  # ~1264 g/mol alkane
        lib = preprocess([heavy, "CCO"], vocab)
        assert lib.stats.weight_rejections == 1
        assert lib.stats.kept == 1

    def test_token_length_filter(self, vocab):
        # 300 disconnected [H] units: light (302 g/mol) but 900 tokens
        long_light = ".".join(["[H]"] * 300)
        lib = preprocess([long_light, "CCO"], vocab)
        assert lib.stats.length_rejections == 1
        assert lib.stats.kept == 1

    def test_parse_failures_counted_not_fatal(self, vocab):
        lib = preprocess(["not a smiles", "C1CC", "CCO"], vocab)
        assert lib.stats.parse_failures == 2
        assert lib.stats.kept == 1

    def test_validity_filter(self, vocab):
        lib = preprocess(["CC(C)(C)(C)C", "CCO"], vocab)
        assert lib.stats.validity_rejections == 1

    def test_sorted_by_canonical(self, corpus_lines, vocab):
        lib = preprocess(corpus_lines[:50], vocab)
        canon = [r.canonical for r in lib.records]
        assert canon == sorted(canon)

    def test_k_is_mean_length(self, vocab):
        lib = preprocess(["CCO", "CCCCO"], vocab)
        lengths = [len(r.canonical) for r in lib.records]
        assert lib.k == sum(lengths) / len(lengths)

    def test_empty_corpus_flags_k(self, vocab):
        lib = preprocess([], vocab)
        assert lib.k is None
        assert lib.records == []
        with pytest.raises(ValueError):
            lib.fragment_params()

    def test_limits_respected(self, library):
        for rec in library.records:
            assert rec.weight <= 1000.0
            assert rec.token_length <= 512

    def test_save_load_round_trip(self, library, tmp_path):
        path = tmp_path / "library.tsv"
        library.save(path)
        loaded = MoleculeLibrary.load(path)
        assert loaded.records == library.records
        assert loaded.k == library.k
        assert loaded.stats == library.stats

    @pytest.mark.parametrize("row", ["CCO\t46.07", "CCO\t46.07\t3\t9", "CCO\theavy\t3"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "library.tsv"
        path.write_text(f"# k=3.0\nCC\t30.07\t2\n{row}\n")
        with pytest.raises(LibraryFormatError, match=f"library.tsv:3: "):
            MoleculeLibrary.load(path)


class TestPretrainPairs:
    def test_two_records_per_cut_molecule(self, vocab):
        lib = preprocess(["OCCCN1CCOCC1", "C"], vocab)
        params = FragmentParams(k=40, alpha=1.5, seed=0)
        counters = PairCounters()
        records = list(make_pretrain_pairs(lib, params, counters=counters))
        assert len(records) == 2
        assert counters.skipped_no_cut == 1
        assert counters.emitted_pairs == 1

    def test_pair_structure(self, vocab):
        lib = preprocess(["OCCCN1CCOCC1"], vocab)
        params = FragmentParams(k=40, alpha=1.5, seed=0)
        fwd, bwd = list(make_pretrain_pairs(lib, params))
        assert fwd.task == "fragmentation" and fwd.direction == "forward"
        assert bwd.task == "recombination" and bwd.direction == "backward"
        assert fwd.input == bwd.output
        assert fwd.output == bwd.input
        assert fwd.id.endswith("-fwd") and bwd.id.endswith("-bwd")
        assert fwd.id.split("-")[0] == bwd.id.split("-")[0]
        assert "." in fwd.output  # dot-joined fragments with dummies
        assert "[" in fwd.output

    def test_record_count_relationship(self, library, default_params):
        counters = PairCounters()
        records = list(make_pretrain_pairs(library, default_params, counters=counters))
        cut_molecules = sum(
            1
            for rec in library.records
            if fragment(parse_smiles(rec.canonical), default_params).cleaved
        )
        assert len(records) == 2 * cut_molecules
        assert counters.emitted_pairs == cut_molecules

    def test_payload_round_trips(self, vocab, default_params):
        lib = preprocess(["CC(=O)Nc1ccc(OC)cc1", "OCCCN1CCOCC1"], vocab)
        for rec in make_pretrain_pairs(lib, default_params):
            if rec.task != "fragmentation":
                continue
            fs = fragment(parse_smiles(rec.input), default_params)
            assert ".".join(f.source_text for f in fs.fragments) == rec.output
            assert canonical_smiles(rejoin(fs)) == rec.input

    def test_instruction_contains_payload(self, vocab, default_params):
        lib = preprocess(["OCCCN1CCOCC1"], vocab)
        fwd, bwd = list(make_pretrain_pairs(lib, default_params))
        assert fwd.input in fwd.instruction
        assert bwd.input in bwd.instruction


class TestFinetunePairs:
    def test_example_reaction(self, vocab):
        triples = [(["CCO", "CC(=O)O"], "CC(=O)OCC", "esterification")]
        fwd, bwd = list(make_finetune_pairs(triples, vocab))
        assert fwd.task == "retrosynthesis" and fwd.direction == "forward"
        assert bwd.task == "reaction" and bwd.direction == "backward"
        assert fwd.input == bwd.output
        assert fwd.output == bwd.input
        assert "esterification" in bwd.instruction
        assert bwd.meta["reaction_type"] == "esterification"
        # payloads are canonical and parseable
        assert canonical_smiles(parse_smiles(fwd.input)) == fwd.input

    def test_empty_reactants_skipped(self, vocab):
        counters = PairCounters()
        records = list(make_finetune_pairs([([], "C", "x")], vocab, counters=counters))
        assert records == []
        assert counters.skipped_empty == 1

    def test_unparseable_skipped(self, vocab):
        counters = PairCounters()
        records = list(
            make_finetune_pairs([(["xx"], "CCO", "y")], vocab, counters=counters)
        )
        assert records == []
        assert counters.skipped_unparseable == 1

    def test_over_weight_skipped(self, vocab):
        counters = PairCounters()
        heavy = "C" * 90
        records = list(
            make_finetune_pairs([([heavy], "CCO", "y")], vocab, counters=counters)
        )
        assert records == []
        assert counters.skipped_filtered == 1

    def test_malformed_reaction_rows_counted(self, vocab, tmp_path):
        path = tmp_path / "reactions.tsv"
        path.write_text(
            "CCO.CC(=O)O\tCC(=O)OCC\testerification\n"
            "CCN\tCCNC\n"
            "CN.CC(=O)O\tCC(=O)NC\tamidation\n"
        )
        counters = PairCounters()
        records = list(make_finetune_pairs(read_reactions(path, counters), vocab, counters=counters))
        assert len(records) == 4
        assert counters.emitted_pairs == 2
        assert counters.skipped_malformed == 1

    def test_bundled_sample_readable(self, vocab):
        triples = list(read_reactions(REACTIONS_PATH))
        assert len(triples) == 100
        records = list(make_finetune_pairs(triples[:10], vocab))
        assert len(records) == 20


class TestFillTemplate:
    def test_deterministic(self):
        a = fill_template("retrosynthesis", "CCO")
        b = fill_template("retrosynthesis", "CCO")
        assert a == b

    def test_payload_verbatim(self):
        text = fill_template("retrosynthesis", "CC(=O)OCC")
        assert "CC(=O)OCC" in text

    def test_missing_slot(self):
        with pytest.raises(MissingSlotError):
            fill_template("reaction", "CCO", {})

    def test_unknown_task(self):
        with pytest.raises(MissingSlotError):
            fill_template("no-such-task", "CCO")

    def test_custom_template_file(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("retrosynthesis\tMake {input} please\n")
        templates = load_templates(path)
        assert fill_template("retrosynthesis", "CCO", templates=templates) == (
            "Make CCO please"
        )


def _sample_records(n):
    return [
        InstructionRecord(
            id=f"rec-{i:03d}",
            task="fragmentation",
            direction="forward",
            instruction=f"do {i}",
            input=f"C{'C' * i}",
            output="[1*]C",
            meta={"seed": 0},
        )
        for i in range(n)
    ]


class TestEmitJsonl:
    def test_shard_sizes(self, tmp_path):
        manifest = emit_jsonl(_sample_records(10), 4, tmp_path)
        assert [s["records"] for s in manifest.shards] == [4, 4, 2]
        assert manifest.total_records == 10

    def test_zero_records(self, tmp_path):
        manifest = emit_jsonl([], 4, tmp_path)
        assert manifest.shards == []
        assert manifest.total_records == 0

    def test_digest_changes_iff_bytes_change(self, tmp_path):
        recs = _sample_records(4)
        m1 = emit_jsonl(recs, 10, tmp_path / "a")
        m2 = emit_jsonl(recs, 10, tmp_path / "b")
        assert m1.shards[0]["sha256"] == m2.shards[0]["sha256"]
        altered = list(recs)
        altered[0] = InstructionRecord(
            id=altered[0].id,
            task=altered[0].task,
            direction=altered[0].direction,
            instruction=altered[0].instruction + "!",
            input=altered[0].input,
            output=altered[0].output,
            meta=altered[0].meta,
        )
        m3 = emit_jsonl(altered, 10, tmp_path / "c")
        assert m3.shards[0]["sha256"] != m1.shards[0]["sha256"]

    def test_stable_key_order(self, tmp_path):
        emit_jsonl(_sample_records(1), 10, tmp_path)
        line = (tmp_path / "shard-00000.jsonl").read_text().strip()
        keys = list(json.loads(line).keys())
        assert keys == ["id", "task", "direction", "instruction", "input", "output", "meta"]

    def test_sorted_by_id_regardless_of_input_order(self, tmp_path):
        recs = _sample_records(6)
        m1 = emit_jsonl(recs, 10, tmp_path / "a")
        m2 = emit_jsonl(list(reversed(recs)), 10, tmp_path / "b")
        assert m1.shards[0]["sha256"] == m2.shards[0]["sha256"]

    def test_read_back(self, tmp_path):
        recs = _sample_records(7)
        emit_jsonl(recs, 3, tmp_path)
        back = list(read_dataset(tmp_path))
        assert back == sorted(recs, key=lambda r: r.id)

    def test_bad_shard_size(self, tmp_path):
        with pytest.raises(ValueError):
            emit_jsonl(_sample_records(2), 0, tmp_path)

    def test_partial_output_cleanup(self, tmp_path, monkeypatch):
        recs = _sample_records(6)
        real_open = builtins.open
        calls = {"n": 0}

        def flaky_open(path, mode="r", **kwargs):
            if "wb" in mode:
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("disk full")
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky_open)
        with pytest.raises(OSError):
            emit_jsonl(recs, 3, tmp_path / "out")
        monkeypatch.undo()
        leftover = list((tmp_path / "out").glob("*"))
        assert leftover == []
