"""The worker pool: ordered results, failures, and serial/parallel
equivalence of every command that fans out.

The CPU count is faked by replacing ``parallel.usable_cpus``; no test asks
for more than two workers.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading

import pytest

from fragsmith import cli, parallel
from fragsmith.brics import FragmentationError, fragment
from fragsmith.dataset import preprocess
from fragsmith.metrics import evaluate
from fragsmith.molgraph import SmilesError, canonical_smiles, parse_smiles, randomized_smiles

from conftest import REACTIONS_PATH, ROOT


def _fake_cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def _pids(items):
    return [(item, os.getpid()) for item in items]


def _send_pids(conn):
    out = parallel.ordered_map(_pids, list(range(200)))
    conn.send((os.getpid(), {pid for _, pid in out}))
    conn.close()


def _fail_from_ten(items):
    for item in items:
        if item >= 10 and item % 10 == 0:
            raise SmilesError(f"bad item {item}", item)
    return items


class TestOrderedMap:
    def test_two_cpus_fan_out_in_order(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)
        items = list(range(5 * parallel.MIN_CHUNK + 3))
        out = parallel.ordered_map(_pids, items)
        assert [item for item, _ in out] == items
        pids = {pid for _, pid in out}
        # Two workers; a fast one may take every chunk.
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids

    @pytest.mark.parametrize("cpus, n", [(1, 500), (2, 2 * parallel.MIN_CHUNK - 1)])
    def test_one_cpu_or_few_items_stay_in_process(self, monkeypatch, cpus, n):
        _fake_cpus(monkeypatch, cpus)
        out = parallel.ordered_map(_pids, list(range(n)))
        assert out == [(i, os.getpid()) for i in range(n)]

    def test_a_running_thread_keeps_the_work_in_process(self, monkeypatch):
        # Forking next to another thread could copy a lock it holds.
        _fake_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            out = parallel.ordered_map(_pids, list(range(200)))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert {pid for _, pid in out} == {os.getpid()}

    def test_a_daemonic_process_keeps_the_work_in_process(self, monkeypatch):
        # A daemonic process, such as a multiprocessing.Pool worker, may
        # not start children.
        _fake_cpus(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_pids, args=(send,), daemon=True)
        child.start()
        try:
            assert receive.poll(30)
            child_pid, pids = receive.recv()
        finally:
            child.join(timeout=30)
        assert child.exitcode == 0
        assert pids == {child_pid}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_earliest_failing_item_raises(self, monkeypatch, cpus):
        _fake_cpus(monkeypatch, cpus)
        with pytest.raises(SmilesError, match=r"^bad item 10 \(offset 10\)$") as info:
            parallel.ordered_map(_fail_from_ten, list(range(300)))
        assert info.value.offset == 10


# A worker that dies must fail the call, not hang it; run in a child
# process so a hang ends at the timeout instead of stalling the suite.
_DEAD_WORKER = """
import multiprocessing, os, sys
from concurrent.futures.process import BrokenProcessPool
from fragsmith import cli, dataset, parallel

parallel.usable_cpus = lambda: 2
PARENT = os.getpid()

def die(*args):
    if os.getpid() != PARENT:
        os._exit(1)
    raise AssertionError("ran in the parent")

if sys.argv[1] == "ordered_map":
    try:
        parallel.ordered_map(die, list(range(200)))
    except BrokenProcessPool:
        print("broken", multiprocessing.active_children())
else:
    dataset._fragment_rows = die
    print("exit", cli.main(["build", "--library", sys.argv[2], "--out", sys.argv[3]]))
"""


def _run_dead_worker(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", _DEAD_WORKER, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_dead_worker_raises_broken_pool_and_leaves_no_child():
    proc = _run_dead_worker("ordered_map")
    assert proc.stdout.strip() == "broken []", proc.stderr


def test_dead_worker_is_an_internal_error(library, tmp_path):
    assert len(library.records) >= 2 * parallel.MIN_CHUNK
    lib = tmp_path / "library.tsv"
    library.save(lib)
    proc = _run_dead_worker("build", str(lib), str(tmp_path / "ds"))
    assert proc.stdout.strip().splitlines()[-1] == "exit 1"
    assert proc.stderr.startswith("error[internal]: a worker process died: ")


def _run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bad_library_row_fails_alike_on_one_and_two_cpus(library, tmp_path, capsys, monkeypatch):
    lib = tmp_path / "library.tsv"
    rows = [f"{r.canonical}\t{r.weight!r}\t{r.token_length}" for r in library.records[:100]]
    rows.insert(70, "C1CC\t40.0\t4")
    lib.write_text("# k=30.0\n" + "\n".join(rows) + "\n")
    results = []
    for cpus in (1, 2):
        _fake_cpus(monkeypatch, cpus)
        results.append(_run_cli(capsys, ["build", "--library", str(lib), "--out", str(tmp_path / "ds")]))
    assert results[0] == results[1]
    code, _, err = results[0]
    assert code == cli.EXIT_ERROR
    assert err == "error[input]: unmatched ring closure 1 (offset 1)\n"


class TestSerialEqualsParallel:
    def _both(self, monkeypatch, run):
        out = []
        for cpus in (1, 2):
            _fake_cpus(monkeypatch, cpus)
            out.append(run(cpus))
        return out

    def test_preprocess_library_bytes(self, corpus_lines, vocab, tmp_path, monkeypatch):
        # Repeats of early lines, written differently, land in later
        # chunks than their first occurrence.
        repeats = [randomized_smiles(parse_smiles(s), 5) for s in corpus_lines[:40]]
        lines = [*corpus_lines, "# comment", "", "C1CC", "CC(C)(C)(C)C", *repeats, *corpus_lines[:10]]

        def run(cpus):
            path = tmp_path / f"lib{cpus}.tsv"
            lib = preprocess(lines, vocab)
            lib.save(path)
            return lib.stats, path.read_bytes()

        serial, pooled = self._both(monkeypatch, run)
        assert serial[0].duplicates >= 50
        assert serial[0].parse_failures >= 1 and serial[0].validity_rejections >= 1
        assert serial == pooled

    def test_build_shards(self, library, tmp_path, capsys, monkeypatch):
        lib = tmp_path / "library.tsv"
        library.save(lib)

        def run(cpus):
            out = tmp_path / f"ds{cpus}"
            argv = ["--seed", "0", "--shards", "2000", "build", "--library", str(lib),
                    "--reactions", str(REACTIONS_PATH), "--out", str(out)]
            code, stdout, _ = _run_cli(capsys, argv)
            assert code == cli.EXIT_OK
            summary = {k: v for k, v in json.loads(stdout).items() if k != "out"}
            return summary, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        serial, pooled = self._both(monkeypatch, run)
        assert serial[0]["pairs"] > 2 * parallel.MIN_CHUNK
        assert len(serial[1]) > 2  # manifest and at least two shards
        assert serial == pooled

    @pytest.mark.parametrize("invalid_as_zero", [False, True])
    def test_evaluate_reports(self, corpus_lines, monkeypatch, invalid_as_zero):
        rng = random.Random(31)
        preds, refs = [], []
        for k in range(160):
            ref = corpus_lines[k]
            if k % 5 == 4:  # a dot-joined reference
                ref = f"{ref}.{corpus_lines[k + 300]}"
            refs.append(ref)
            kind = k % 4
            if kind == 0:  # exact hit, written differently
                preds.append(randomized_smiles(parse_smiles(ref), rng.randrange(1000)))
            elif kind == 1:  # near miss: one carbon more
                preds.append(canonical_smiles(parse_smiles(ref)) + "C")
            elif kind == 2:  # another library molecule
                preds.append(corpus_lines[k + 500])
            else:  # invalid: unclosed branch or pentavalent carbon
                preds.append(ref + "(" if k % 8 == 3 else "CC(C)(C)(C)C")

        def run(cpus):
            return evaluate(preds, refs, invalid_as_zero=invalid_as_zero)

        serial, pooled = self._both(monkeypatch, run)
        assert 0 < serial.exact < serial.validity < 1
        assert serial == pooled


def test_smiles_alphabet_fuzz(default_params, monkeypatch):
    """Crash guard: 20,000 random strings over SMILES tokens through one
    evaluate call (which takes the pool path) and through fragment. Only
    SmilesError and FragmentationError may escape."""
    tokens = ["C", "C", "C", "c", "N", "n", "O", "o", "S", "s", "P", "F", "Cl", "Br", "I",
              "[nH]", "[N+]", "[O-]", "[13C]", "[2*]", "*", "(", ")", "=", "#", "-", ":", "/",
              "\\", ".", "1", "1", "2", "%12", "[", "]", "@", "+", "H"]
    rng = random.Random(2027)
    strings = ["".join(rng.choice(tokens) for _ in range(rng.randint(1, 14))) for _ in range(20_000)]
    reports = []
    for cpus in (1, 2):
        _fake_cpus(monkeypatch, cpus)
        reports.append(evaluate(strings, strings[1:] + strings[:1]))
    assert reports[0] == reports[1]
    assert reports[0].n - reports[0].fts_skipped > 0  # some pairs were fingerprinted
    fragmented = 0
    for s in strings:
        try:
            fragment(parse_smiles(s), default_params)
        except (SmilesError, FragmentationError):
            continue
        fragmented += 1
    assert fragmented > 500


def test_one_item_commands_load_no_pool_modules(tmp_path):
    (tmp_path / "one.smi").write_text("CCO\n")
    (tmp_path / "one_rx.tsv").write_text(REACTIONS_PATH.read_text().splitlines()[1] + "\n")
    (tmp_path / "preds.txt").write_text("OCC\n")
    (tmp_path / "refs.txt").write_text("CCO\n")
    script = (
        "import sys\n"
        "from fragsmith import cli\n"
        "codes = [cli.main(argv.split()) for argv in [\n"
        "    'preprocess one.smi --out lib.tsv',\n"
        "    'build --library lib.tsv --reactions one_rx.tsv --out ds',\n"
        "    'eval preds.txt refs.txt']]\n"
        "print(codes, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] []", proc.stderr
