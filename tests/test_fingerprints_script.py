"""scripts/fingerprints.py: the comparison with a recorded BENCH file,
on small fake digests; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "fingerprints.py"
_SPEC = importlib.util.spec_from_file_location("fingerprints_script", _PATH)
script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(script)

CURRENT = {"fixture_lib.tsv": "aa", "b1_ds": "bb", "rec1_round_digest": "cc"}


def test_equal_digests_differ_nowhere():
    assert script.differing_keys(CURRENT, dict(CURRENT, note="free text")) == []


def test_changed_and_unrecorded_keys_differ():
    recorded = {"fixture_lib.tsv": "aa", "b1_ds": "b0", "rec1_digest": "cc"}
    assert script.differing_keys(CURRENT, recorded) == ["b1_ds", "rec1_round_digest"]


@pytest.fixture
def fake_tree(monkeypatch):
    monkeypatch.setattr(script, "fingerprints", lambda root: dict(CURRENT))


def _bench(tmp_path, fingerprints):
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"fingerprints": fingerprints}))
    return str(path)


def test_against_an_equal_record_exits_0(fake_tree, tmp_path, capsys):
    assert script.main(["--against", _bench(tmp_path, dict(CURRENT, note="n"))]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == CURRENT
    assert err == ""


def test_against_a_differing_record_exits_1_and_names_each_key(fake_tree, tmp_path, capsys):
    bench = _bench(tmp_path, {"fixture_lib.tsv": "a0", "b1_ds": "bb"})
    assert script.main(["--against", bench]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fixture_lib.tsv", "rec1_round_digest"]
    assert "a0" in lines[0] and "not recorded" in lines[1]


def test_without_against_exits_0(fake_tree, capsys):
    assert script.main([]) == 0
    assert json.loads(capsys.readouterr().out) == CURRENT
