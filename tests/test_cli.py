import json

import pytest

from fragsmith.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_USAGE, main

from conftest import CORPUS_PATH, REACTIONS_PATH


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

    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "mols.smi"
        path.write_text("CCO\nOCCCN1CCOCC1\n")
        assert main(["fragment", "--file", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("cap=") == 2


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
        )
        assert main([
            "build", "--library", str(lib), "--reactions", str(reactions),
            "--out", str(tmp_path / "d"),
        ]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == 2
        assert summary["skipped_malformed"] == 1

    def test_missing_library(self, tmp_path, capsys):
        assert main(["build", "--library", str(tmp_path / "no.tsv")]) == EXIT_IO
        assert "error[io]" in capsys.readouterr().err

    def test_malformed_library_row(self, tmp_path, capsys):
        lib = tmp_path / "lib.tsv"
        lib.write_text("# k=3.0\nCC\t30.07\t2\nCCO\t46.07\n")
        assert main(["build", "--library", str(lib), "--out", str(tmp_path / "d")]) == EXIT_IO
        assert f"error[io]: {lib}:3: " in capsys.readouterr().err


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
