"""scripts/bench_pairs.py: the summary and verdict arithmetic on small
fake runs, the refusal to compare trees whose benchmarks differ, and the
fingerprint check, run end to end in a fake repository whose benchmark
and fingerprint scripts print fixed lines; no benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs_script", _PATH)
script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(script)

DIRECTIONS = {"items_per_s": "higher", "peak_rss_mb": "lower"}
BENCHMARK = {"end_to_end": [
    {"name": "items_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]}


def _runs(parent, change, failed=(0, 0)):
    """Fake runs of one workload on seed 1: pair k reads ``parent[k]`` and
    ``change[k]``, each an (items_per_s, peak_rss_mb) pair, over 4 rounds."""
    runs = []
    for k, values in enumerate(zip(parent, change)):
        for side, (rate, rss), fail in zip(script.SIDES, values, failed):
            runs.append({"seed": 1, "pair": k, "side": side, "rounds": 4, "failed": fail,
                         "metrics": {"items_per_s": rate, "peak_rss_mb": rss}})
    return runs


def test_quartiles_inclusive_and_single_value():
    assert script.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert script.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_counts_wins_in_the_better_direction_and_ties_for_neither():
    parent = [(100, 50), (100, 50), (100, 50), (100, 50)]
    change = [(110, 40), (100, 50), (90, 41), (120, 60)]
    s = script.summarize(_runs(parent, change, failed=(4, 8)), DIRECTIONS)
    assert s["pairs"] == 4
    assert s["metrics"]["items_per_s"]["change_won"] == 2
    assert s["metrics"]["peak_rss_mb"]["change_won"] == 2
    assert s["metrics"]["peak_rss_mb"]["change"] == {"median": 45.5, "q1": 40.75, "q3": 52.5}
    assert not s["metrics"]["items_per_s"]["every_change_run_better"]
    assert s["failed_per_round"] == {"parent": [1.0], "change": [2.0]}


def test_unpaired_run_is_left_out():
    runs = _runs([(100, 50)] * 2, [(110, 40)] * 2)
    s = script.summarize(runs[:-1], DIRECTIONS)
    assert s["pairs"] == 1


def test_claim_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_parent_iqr():
    parent = [(100, 50 + k % 3) for k in range(10)]  # quartiles 50 and 51.75
    change = [(100, 40)] * 9 + [(100, 55)]
    s = script.summarize(_runs(parent, change), DIRECTIONS)
    v = script.claim_verdict(s, "peak_rss_mb", "lower")
    assert (v["change_won"], v["pairs"], v["won_nine_tenths"]) == (9, 10, True)
    assert v["parent_iqr"] == 1.75 and v["median_gain"] == 11 and v["met"]
    # Eight wins of ten fall short, whatever the gain.
    s = script.summarize(_runs(parent, [(100, 40)] * 8 + [(100, 55)] * 2), DIRECTIONS)
    assert not script.claim_verdict(s, "peak_rss_mb", "lower")["met"]
    # Ten wins by less than the parent's spread fall short too.
    s = script.summarize(_runs(parent, [(100, 49.5)] * 10), DIRECTIONS)
    v = script.claim_verdict(s, "peak_rss_mb", "lower")
    assert v["won_nine_tenths"] and not v["gain_beyond_iqr"] and not v["met"]


@pytest.mark.parametrize("parent, change, verdict", [
    ([(100, 50)] * 4, [(80, 50)] * 4, "within bound"),  # 20% slower, bound 25%
    ([(100, 50)] * 4, [(70, 50)] * 4, "worse"),  # 30% slower
    ([(60, 50), (140, 50), (60, 50), (140, 50)], [(90, 50)] * 4, "unresolved"),
    ([(60, 50), (140, 50), (60, 50), (140, 50)], [(150, 50)] * 4, "within bound"),
])
def test_bound_verdicts(parent, change, verdict):
    s = script.summarize(_runs(parent, change), DIRECTIONS)
    assert script.bound_verdict(s, "items_per_s", "higher", 0.25)["verdict"] == verdict


def test_verdicts_split_claims_from_bounds():
    s = script.summarize(_runs([(100, 50)] * 10, [(100, 40)] * 10), DIRECTIONS)
    v = script.verdicts({"recombine": s}, BENCHMARK, [("peak_rss_mb", "recombine")])
    assert list(v["claims"]) == ["peak_rss_mb@recombine"] and v["claims"]["peak_rss_mb@recombine"]["met"]
    assert v["bounds"] == {"items_per_s@recombine": {
        "bound": 0.25, "worse_by": 0.0, "spread": 0.0, "verdict": "within bound"}}


@pytest.mark.parametrize("text", ["peak_rss_mb", "@recombine", "peak_rss_mb@"])
def test_malformed_claim_is_refused(text):
    with pytest.raises(Exception, match="METRIC@WORKLOAD"):
        script.parse_claim(text)


def test_benchmark_files_must_match(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("x = 1\n")
        (root / "BENCHMARK.json").write_text("{}\n")
    (a / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    assert script.differing_bench_files(a, b) == []
    (b / "perfbench" / "run.py").write_text("x = 2\n")
    (b / "perfbench" / "gen.py").write_text("")
    (b / "BENCHMARK.json").write_text("[]\n")
    assert script.differing_bench_files(a, b) == ["BENCHMARK.json", "perfbench/gen.py", "perfbench/run.py"]


def test_fingerprint_check_lists_deliberate_and_flags_the_rest():
    change = {"lib": "1", "ds": "2", "eval": "3"}
    recorded = {"note": "text", "lib": "1", "ds": "9"}  # "eval" not recorded
    check = script.fingerprint_check(change, recorded, ["ds", "lib"])
    assert check == {"differing": ["ds", "eval"], "deliberate": ["ds"],
                     "undeclared": ["eval"], "not_differing": ["lib"]}
    assert script.fingerprint_check(change, {**recorded, "ds": "2", "eval": "3"}, []) == {
        "differing": [], "deliberate": [], "undeclared": [], "not_differing": []}


_FAKE_RUN = """\
import json, sys
if sys.argv[-1] == "1":  # --trace 1: the per-layer metrics, read from spans.txt
    parse_us, pool_us = map(float, open("spans.txt").read().split())
    metrics = {"molgraph.parse_us": {"value": parse_us, "unit": "us"},
               "molgraph.validate_us": {"value": pool_us, "unit": "us"}}
else:
    metrics = {"items_per_s": {"value": 10.0, "unit": "1/s"}}
print("# w rounds=2")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}))
"""
_FAKE_FINGERPRINTS = """\
import json
print(json.dumps({"lib": "1", "ds": open("ds.txt").read()}))
"""


def _fake_repo(root):
    """A git repository holding bench_pairs.py, a fake benchmark and a
    fake fingerprint script whose ``ds`` digest is the text of ``ds.txt``:
    "old" at HEAD, "new" in the working tree."""
    files = {
        "BENCHMARK.json": json.dumps({"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [
            {"name": "items_per_s", "better": "higher", "bound": 0.25}], "per_layer": [
            {"name": "molgraph.parse_us", "better": "lower"},
            {"name": "molgraph.validate_us", "better": "lower"}]}),
        "perfbench/run.py": _FAKE_RUN,
        "scripts/fingerprints.py": _FAKE_FINGERPRINTS,
        "scripts/bench_pairs.py": _PATH.read_text(),
        "ds.txt": "old",
        "spans.txt": "20 0",
        "against.json": json.dumps({"fingerprints": {"lib": "1", "ds": "old"}}),
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "fake"]):
        subprocess.run([*git, *args], cwd=root, check=True, capture_output=True)
    (root / "ds.txt").write_text("new")
    (root / "spans.txt").write_text("15 0")


@pytest.mark.parametrize("deliberate, status", [([], 1), (["ds"], 0), (["ds", "lib"], 1)])
def test_against_records_both_trees_and_refuses_undeclared_changes(tmp_path, deliberate, status):
    _fake_repo(tmp_path)
    flags = [arg for key in deliberate for arg in ("--deliberate", key)]
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD", "--out", "out.json",
         "--pairs", "1", "--against", "against.json", *flags],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == status, proc.stderr
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["fingerprints"] == {"lib": "1", "ds": "new"}
    assert report["parent_fingerprints"] == {"lib": "1", "ds": "old"}
    assert report["fingerprint_check"]["against"] == "against.json"
    assert report["fingerprint_check"]["deliberate"] == (["ds"] if deliberate else [])
    # The pairs run only when every difference is declared.
    assert len(report.get("runs", [])) == (2 if status == 0 else 0)


def test_change_copy_holds_the_working_tree_without_ignored_files(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "copy"
    root.mkdir()
    _fake_repo(root)
    (root / ".gitignore").write_text("ignored.txt\n")
    (root / "ignored.txt").write_text("x")
    (root / "untracked.txt").write_text("y")
    (root / "against.json").unlink()
    script.copy_working_tree(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "BENCHMARK.json", "ds.txt", "perfbench/run.py",
                      "scripts/bench_pairs.py", "scripts/fingerprints.py", "spans.txt", "untracked.txt"]
    assert (dest / "ds.txt").read_text() == "new"


@pytest.mark.parametrize("trace", [False, True])
def test_trace_runs_per_layer_pairs_on_the_first_seed(tmp_path, trace):
    _fake_repo(tmp_path)
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD", "--out", "out.json",
         "--pairs", "2", "--seeds", "3,4", *(["--trace"] if trace else [])],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out.json").read_text())
    assert len(report["runs"]) == 8  # 2 seeds, 2 pairs, 2 sides
    if not trace:
        assert "trace_summary" not in report and "trace_runs" not in report
        return
    assert [(r["seed"], r["pair"], r["side"]) for r in report["trace_runs"]] == [
        (3, 0, "parent"), (3, 0, "change"), (3, 1, "change"), (3, 1, "parent")]
    assert report["commands"][-1] == "python3 perfbench/run.py --workload w --seed 3 --seconds 1 --trace 1"
    layers = report["trace_summary"]["w"]["metrics"]
    assert layers["molgraph.parse_us"]["parent"]["median"] == 20.0
    assert layers["molgraph.parse_us"]["change"]["median"] == 15.0
    assert layers["molgraph.parse_us"]["change_won"] == 2
    # A layer whose work runs where no span sees it reads 0 on both sides.
    assert layers["molgraph.validate_us"]["parent"]["median"] == layers["molgraph.validate_us"]["change"]["median"] == 0
    assert layers["molgraph.validate_us"]["change_won"] == 0
