import json
import os
import subprocess
import sys

import pytest

from fragsmith.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from fragsmith.tokenizer import Vocab, build_vocab

from conftest import CORPUS_PATH, REACTIONS_PATH, ROOT


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.smi"
    lines = CORPUS_PATH.read_text().splitlines()
    keep = [l for l in lines if l.strip() and not l.startswith("#")][:60]
    path.write_text("\n".join(keep) + "\n")
    return path


@pytest.fixture(scope="module")
def small_library(small_corpus, tmp_path_factory):
    lib = tmp_path_factory.mktemp("cli") / "library.tsv"
    assert main(["preprocess", str(small_corpus), "--out", str(lib)]) == EXIT_OK
    return lib


class TestFragmentCommand:
    def test_figure_molecule(self, capsys):
        assert main(["fragment", "OCCCN1CCOCC1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cap=" in out
        payload = out.strip().splitlines()[-1]
        parts = payload.split(".")
        assert len(parts) == 2
        assert all("*]" in p for p in parts)

    def test_cap_value_printed(self, capsys):
        assert main(["--k", "40", "fragment", "OCCCN1CCOCC1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cap=12" in out  # L=12 < k=40 so the cap is the length

    def test_bad_smiles(self, capsys):
        assert main(["fragment", "C1CC"]) != EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("error[")

    def test_unfragmentable_smiles_is_an_input_error(self, capsys):
        assert main(["fragment", "CC(C)(C)(C)C"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[input]: invalid molecule")

    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "mols.smi"
        path.write_text("CCO\nOCCCN1CCOCC1\n")
        assert main(["fragment", "--file", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("cap=") == 2

    def test_file_mode_reports_each_bad_line(self, capsys, tmp_path):
        path = tmp_path / "mols.smi"
        path.write_text("CCO\nC1CC\nCC(C)(C)(C)C\nC²\nOCCCN1CCOCC1\n")
        assert main(["fragment", "--file", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out.count("cap=") == 2
        errors = captured.err.splitlines()
        assert len(errors) == 3
        assert errors[0].startswith(f"error[input]: {path}:2: unmatched ring closure 1")
        assert errors[1].startswith(f"error[input]: {path}:3: invalid molecule")
        assert errors[2].startswith(f"error[input]: {path}:4: unexpected character '²'")


class TestPreprocessCommand:
    def test_writes_library_and_stats(self, small_corpus, tmp_path, capsys):
        lib = tmp_path / "lib.tsv"
        assert main(["preprocess", str(small_corpus), "--out", str(lib)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["kept"] > 0
        assert lib.exists()

    def test_unreadable_corpus(self, tmp_path, capsys):
        missing = tmp_path / "nope.smi"
        assert main(["preprocess", str(missing), "--out", str(tmp_path / "x")]) == EXIT_IO
        assert "error[io]" in capsys.readouterr().err


class TestBuildCommand:
    def test_build_and_determinism(self, small_library, tmp_path, capsys):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            code = main([
                "--seed", "7", "build",
                "--library", str(small_library),
                "--reactions", str(REACTIONS_PATH),
                "--out", str(out),
            ])
            assert code == EXIT_OK
            capsys.readouterr()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert [s["sha256"] for s in m1["shards"]] == [s["sha256"] for s in m2["shards"]]
        assert m1["config"]["seed"] == 7

    def test_summary_counts_malformed_reaction_rows(self, tmp_path, capsys):
        lib = tmp_path / "lib.tsv"
        lib.write_text("# k=3.0\nCC\t30.07\t2\n")
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text(
            "CCO.CC(=O)O\tCC(=O)OCC\testerification\n"
            "CCN\tCCNC\n"
            "CN.CC(=O)O\tCC(=O)NC\tamidation\n"
            "CCN\t\tamidation\n"
        )
        assert main([
            "build", "--library", str(lib), "--reactions", str(reactions),
            "--out", str(tmp_path / "d"),
        ]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == 2
        assert "emitted_pairs" not in summary
        assert summary["skipped_malformed"] == 1
        assert summary["skipped_empty"] == 1

    @pytest.mark.parametrize("name", ["missing.tsv", "a-directory"])
    def test_unreadable_reactions(self, small_library, tmp_path, name, capsys):
        (tmp_path / "a-directory").mkdir()
        reactions = tmp_path / name
        assert main([
            "build", "--library", str(small_library), "--reactions", str(reactions),
            "--out", str(tmp_path / "d"),
        ]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error[io]: cannot read {reactions}: ")

    def test_missing_library(self, tmp_path, capsys):
        assert main(["build", "--library", str(tmp_path / "no.tsv")]) == EXIT_IO
        assert "error[io]" in capsys.readouterr().err

    def test_malformed_library_row(self, tmp_path, capsys):
        lib = tmp_path / "lib.tsv"
        lib.write_text("# k=3.0\nCC\t30.07\t2\nCCO\t46.07\n")
        assert main(["build", "--library", str(lib), "--out", str(tmp_path / "d")]) == EXIT_IO
        assert f"error[io]: {lib}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["# k=abc", '# stats={"bogus": 1}', "# stats=3"])
    def test_malformed_library_header(self, tmp_path, header, capsys):
        lib = tmp_path / "lib.tsv"
        lib.write_text(f"# k=3.0\n{header}\nCC\t30.07\t2\n")
        assert main(["build", "--library", str(lib), "--out", str(tmp_path / "d")]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error[io]: {lib}:2: ")

    def test_config_echo_keys(self, tmp_path, capsys):
        lib = tmp_path / "lib.tsv"
        lib.write_text("# k=3.0\nCC\t30.07\t2\n")
        out = tmp_path / "d"
        assert main(["build", "--library", str(lib), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        # The settings the shards depend on, and the inputs.
        assert sorted(manifest["config"]) == [
            "alpha", "k", "library", "reactions", "seed", "shard_size",
        ]


class TestTokenizeCommand:
    def test_prints_ids(self, capsys):
        assert main(["tokenize", "CCO"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        ids = [int(x) for x in out.split()]
        assert len(ids) == 5  # BOM C C O EOM

    def test_show_tokens(self, capsys):
        assert main(["tokenize", "CCO", "--show-tokens"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "<BOM>" in out

    def test_paper_pairing_flag(self, capsys):
        assert main([
            "--special-pairing", "paper", "tokenize", "CCO", "--show-tokens",
        ]) == EXIT_OK
        assert "<BOF>" in capsys.readouterr().out

    def test_untokenizable_text_is_an_input_error(self, capsys):
        assert main(["tokenize", "C\u20acC"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[input]: character '\u20ac' at position 1")

    def test_fragment_kind(self, capsys):
        assert main(["tokenize", "[1*]CC", "--kind", "fragment_set", "--show-tokens"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "<BOF>" in out and "[1*]" in out


class TestEvalCommand:
    def test_identity_files(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        refs = tmp_path / "refs.txt"
        content = "CCO\nc1ccccc1\nOCCCN1CCOCC1\n"
        preds.write_text(content)
        refs.write_text(content)
        assert main(["eval", str(preds), str(refs)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "EXACT" in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["exact"] == 1.0
        assert report["bleu"] == 1.0
        assert report["levenshtein"] == 0.0
        assert report["validity"] == 1.0

    def test_dataset_mode(self, small_library, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["build", "--library", str(small_library), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        # perfect predictions keyed by id
        preds = tmp_path / "preds.tsv"
        lines = []
        manifest = json.loads((out / "manifest.json").read_text())
        for shard in manifest["shards"]:
            for line in (out / shard["path"]).read_text().splitlines():
                rec = json.loads(line)
                lines.append(f"{rec['id']}\t{rec['output']}")
        preds.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--dataset", str(out), str(preds)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["exact"] == 1.0

    def test_blank_prediction_scores_invalid(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        refs = tmp_path / "refs.txt"
        preds.write_text("CCO\n\nc1ccccc1\n")
        refs.write_text("CCO\nCCN\nc1ccccc1\n")
        assert main(["eval", str(preds), str(refs)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["n"] == 3
        assert report["validity"] == round(2 / 3, 6)
        assert report["exact"] == round(2 / 3, 6)
        assert report["fts_skipped"] == 1

    def test_non_ascii_digit_prediction_scores_invalid(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        refs = tmp_path / "refs.txt"
        preds.write_text("C²\nCCO\n")
        refs.write_text("CC\nCCO\n")
        assert main(["eval", str(preds), str(refs)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["n"] == 2
        assert report["validity"] == 0.5

    def test_blank_reference_names_line(self, tmp_path, capsys):
        # Blanks at different positions must not re-pair the other lines.
        preds = tmp_path / "preds.txt"
        refs = tmp_path / "refs.txt"
        preds.write_text("CCO\n\nc1ccccc1\n")
        refs.write_text("CCO\nc1ccccc1\n\n")
        assert main(["eval", str(preds), str(refs)]) == EXIT_IO
        captured = capsys.readouterr()
        assert f"error[io]: {refs}:3: blank reference" in captured.err
        assert "exact" not in captured.out

    def test_line_count_mismatch(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        refs = tmp_path / "refs.txt"
        preds.write_text("CCO\nCCN\n")
        refs.write_text("CCO\n")
        assert main(["eval", str(preds), str(refs)]) == EXIT_IO
        assert "error[io]" in capsys.readouterr().err

    def test_dataset_duplicate_prediction_id(self, small_library, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["build", "--library", str(small_library), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        shard = (out / manifest["shards"][0]["path"]).read_text().splitlines()
        first, second = (json.loads(line) for line in shard[:2])
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            f"{first['id']}\t{first['output']}\n"
            f"{second['id']}\t{second['output']}\n"
            f"{first['id']}\tC\n"
        )
        assert main(["eval", "--dataset", str(out), str(preds)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"error[io]: {preds}:3: duplicate prediction id" in err

    def test_unreadable_preds(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("C\n")
        assert main(["eval", str(tmp_path / "missing.txt"), str(refs)]) == EXIT_IO

    def test_no_references_is_a_usage_error(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("C\n")
        assert main(["eval", str(preds)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error[usage]: eval needs a references file or --dataset\n"


class TestStatsCommand:
    def test_histograms(self, small_library, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["build", "--library", str(small_library), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["stats", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "fragment count histogram" in text
        assert "250-500" in text
        assert ">10" in text


class TestConfig:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 13\nalpha = 2.0\n# comment\n")
        assert main(["--config", str(cfg), "tokenize", "CCO"]) == EXIT_OK

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense = 1\n")
        assert main(["--config", str(cfg), "tokenize", "CCO"]) == EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = banana\n")
        assert main(["--config", str(cfg), "tokenize", "CCO"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "no.cfg"), "tokenize", "C"]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, message", [
        ("x=\n", "2: unknown key 'x'"),
        ("seed\n", "2: expected key=value"),
        ("seed = banana\n", "2: seed: expected a number, got 'banana'"),
    ])
    def test_config_errors_name_path_and_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# header\n" + text)
        assert main(["--config", str(cfg), "tokenize", "CCO"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error[config]: {cfg}:{message}\n"

    def test_env_override(self, small_library, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRAGSMITH_SEED", "99")
        out = tmp_path / "ds"
        assert main(["build", "--library", str(small_library), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99

    def test_flag_beats_env(self, small_library, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRAGSMITH_SEED", "99")
        out = tmp_path / "ds"
        assert main([
            "--seed", "5", "build", "--library", str(small_library), "--out", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--definitely-not-a-flag", "tokenize", "C"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_special_pairing_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["--special-pairing", "upside-down", "tokenize", "C"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv, key", [
        (["--k", "0", "fragment", "CCO"], "k"),
        (["--k", "-3", "build", "--library", "unused.tsv"], "k"),
        (["--alpha", "0", "fragment", "CCO"], "alpha"),
        (["--alpha", "-1", "fragment", "CCO"], "alpha"),
        (["--alpha", "nan", "fragment", "CCO"], "alpha"),
        (["--alpha", "inf", "build", "--library", "unused.tsv"], "alpha"),
        (["--shards", "0", "build", "--library", "unused.tsv"], "shards"),
    ])
    def test_out_of_range_setting_is_a_config_error(self, capsys, argv, key):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error[config]: {key} must be ")

    def test_out_of_range_setting_from_env_or_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRAGSMITH_ALPHA", "inf")
        assert main(["fragment", "CCO"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error[config]: alpha must be a finite number > 0, got inf\n"
        monkeypatch.delenv("FRAGSMITH_ALPHA")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("shards = -1\n")
        assert main(["--config", str(cfg), "tokenize", "CCO"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error[config]: shards must be >= 1, got -1\n"

    def test_large_alpha_caps_at_the_length(self, small_library, tmp_path, capsys):
        smiles = "C" * 90
        assert main(["--alpha", "1e6", "fragment", smiles]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# cap=90 ")
        out = tmp_path / "ds"
        argv = ["--alpha", "1e6", "build", "--library", str(small_library), "--out", str(out)]
        assert main(argv) == EXIT_OK


class TestConfigNamedFiles:
    """A bad --templates, --vocab or --groups file is a config error."""

    def _fails(self, capsys, argv, prefix):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {prefix}"), err

    def _templates(self, tmp_path, text):
        path = tmp_path / "templates.txt"
        path.write_text(text)
        return path

    def test_template_line_without_tab(self, small_library, tmp_path, capsys):
        path = self._templates(tmp_path, "# header\nfragmentation Break {input}\n")
        self._fails(capsys, [
            "--templates", str(path), "build", "--library", str(small_library),
            "--out", str(tmp_path / "ds"),
        ], f"{path}:2: expected a task name, a tab and the template")

    def test_template_slot_without_value(self, small_library, tmp_path, capsys):
        path = self._templates(tmp_path, "recombination\tJoin {input} as {reaction_type}\n")
        self._fails(capsys, [
            "--templates", str(path), "build", "--library", str(small_library),
            "--out", str(tmp_path / "ds"),
        ], f"{path}:1: template slot {{reaction_type}} has no value in recombination records")

    def test_template_file_without_a_task(self, small_library, tmp_path, capsys):
        path = self._templates(tmp_path, "retrosynthesis\tMake {input}\n")
        self._fails(capsys, [
            "--templates", str(path), "build", "--library", str(small_library),
            "--out", str(tmp_path / "ds"),
        ], f"{path}: no template for task 'fragmentation'")

    def test_vocab_without_a_special_token(self, tmp_path, capsys):
        vocab = build_vocab()
        keep = [i for i, tok in enumerate(vocab.tokens) if tok != "<BOM>"]
        path = tmp_path / "vocab.tsv"
        Vocab(
            tokens=tuple(vocab.tokens[i] for i in keep),
            classes=tuple(vocab.classes[i] for i in keep),
        ).save(path)
        self._fails(capsys, ["--vocab", str(path), "tokenize", "CCO"],
                    f"{path}: missing special tokens ['<BOM>']")

    def test_vocab_non_integer_id(self, tmp_path, capsys):
        path = tmp_path / "vocab.tsv"
        build_vocab().save(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "x" + lines[2][1:]
        path.write_text("".join(lines))
        self._fails(capsys, ["--vocab", str(path), "tokenize", "CCO"],
                    f"{path}:3: expected id 2")

    def test_vocab_unknown_class(self, tmp_path, capsys):
        path = tmp_path / "vocab.tsv"
        build_vocab().save(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[30] = lines[30].replace("\tbase\t", "\tbogus\t")
        path.write_text("".join(lines))
        self._fails(capsys, ["--vocab", str(path), "tokenize", "CCO"],
                    f"{path}:31: unknown token class 'bogus'")

    def test_vocab_file_missing(self, tmp_path, capsys):
        path = tmp_path / "missing.tsv"
        self._fails(capsys, ["--vocab", str(path), "tokenize", "CCO"],
                    f"cannot read {path}: [Errno 2]")

    def test_unbalanced_group_entry(self, tmp_path, capsys):
        path = tmp_path / "groups.txt"
        path.write_text("# groups\nC(=O\n")
        self._fails(capsys, ["--groups", str(path), "tokenize", "CCO"],
                    f"{path}:2: unbalanced '('")

    def test_group_entry_duplicating_a_base_token(self, tmp_path, capsys):
        path = tmp_path / "groups.txt"
        path.write_text("C\n")
        self._fails(capsys, ["--groups", str(path), "tokenize", "CCO"],
                    f"{path}:1: duplicate token 'C'")


class TestMalformedDataset:
    """A shard line that is not a record is an input error at shard:line."""

    @pytest.fixture
    def dataset(self, small_library, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["build", "--library", str(small_library), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        return out

    def _break_line(self, shard, lineno, text):
        lines = shard.read_text().splitlines(keepends=True)
        lines[lineno - 1] = text + "\n"
        shard.write_text("".join(lines))

    def test_bad_json_line(self, dataset, tmp_path, capsys):
        shard = dataset / "shard-00000.jsonl"
        self._break_line(shard, 2, '{"id": "x", ')
        assert main(["stats", str(dataset)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"error[io]: {shard}:2: not an instruction record: "
        )

    @pytest.mark.parametrize("command", ["stats", "eval"])
    def test_record_without_task(self, dataset, tmp_path, capsys, command):
        shard = dataset / "shard-00000.jsonl"
        record = json.loads(shard.read_text().splitlines()[2])
        del record["task"]
        self._break_line(shard, 3, json.dumps(record))
        preds = tmp_path / "preds.tsv"
        preds.write_text(f"{record['id']}\t{record['output']}\n")
        argv = ["stats", str(dataset)]
        if command == "eval":
            argv = ["eval", "--dataset", str(dataset), str(preds)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error[io]: {shard}:3: not an instruction record: "), err
        assert "'task'" in err


# Per input file: its valid line 1, the command reading it (``{path}`` is
# the file; ``{lib}``, ``{good}`` and ``{tmp}`` a library, a readable
# one-SMILES-a-line file and a scratch directory) and the error category.
UNDECODABLE_INPUTS = {
    "corpus": ("CCO", ["preprocess", "{path}", "--out", "{tmp}/lib.tsv"], "io"),
    "library": ("# k=3.0", ["build", "--library", "{path}", "--out", "{tmp}/ds"], "io"),
    "reactions": ("# reactions", [
        "build", "--library", "{lib}", "--reactions", "{path}", "--out", "{tmp}/ds",
    ], "io"),
    "templates": ("# templates", [
        "--templates", "{path}", "build", "--library", "{lib}", "--out", "{tmp}/ds",
    ], "config"),
    "vocab": ("0\tspecial\t<BOF>", ["--vocab", "{path}", "tokenize", "CCO"], "config"),
    "groups": ("# groups", ["--groups", "{path}", "tokenize", "CCO"], "config"),
    "config": ("# config", ["--config", "{path}", "tokenize", "CCO"], "config"),
    "preds": ("C", ["eval", "{path}", "{good}"], "io"),
    "refs": ("C", ["eval", "{good}", "{path}"], "io"),
    "fragment --file": ("CCO", ["fragment", "--file", "{path}"], "io"),
    "shard": (None, ["stats", "{tmp}/ds"], "io"),
}


@pytest.mark.parametrize("name", UNDECODABLE_INPUTS)
def test_undecodable_byte_names_path_and_line(name, small_library, tmp_path, capsys):
    """A byte that is not UTF-8 on line 2 of any input file is a named
    error at PATH:2, never a traceback or an internal error."""
    first, argv, category = UNDECODABLE_INPUTS[name]
    good = tmp_path / "good.txt"
    good.write_text("C\nC\n")
    if first is None:
        assert main(["build", "--library", str(small_library), "--out", str(tmp_path / "ds")]) == EXIT_OK
        capsys.readouterr()
        path = tmp_path / "ds" / "shard-00000.jsonl"
        first = path.read_text().splitlines()[0]
    else:
        path = tmp_path / "input.txt"
    path.write_bytes(first.encode() + b"\nC\xffO\n")
    values = {"path": path, "lib": small_library, "good": good, "tmp": tmp_path}
    code = main([arg.format(**values) for arg in argv])
    err = capsys.readouterr().err
    assert err == f"error[{category}]: {path}:2: not UTF-8: byte 0xff at column 2\n"
    assert code == (EXIT_CONFIG if category == "config" else EXIT_IO)


def test_package_runs_as_module():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fragsmith", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fragsmith")
