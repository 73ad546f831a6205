"""Span tracer for the traced benchmark run.

It wraps fragsmith's public functions from outside the package: each
call records a span (name, start, end, parent span) in memory, and the
spans are written once, when the traced process ends (in
``recombine_rounds.py``, when its timed rounds end), together with a
per-name summary of calls, self time and counters. A span's self time is
its duration minus the durations of its direct child spans. Generator
functions run to completion inside their span.

Run a fragsmith CLI command under the tracer with:

    python3 perfbench/spans.py OUT_PREFIX preprocess corpus.smi --out lib.tsv

which writes OUT_PREFIX.spans.tsv and OUT_PREFIX.summary.json.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from dataclasses import fields, is_dataclass


def _tokenize_name(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "molecule")
    return "tokenizer.tokenize_fragset" if kind == "fragment_set" else "tokenizer.tokenize_mol"


def _fingerprint_name(args, kwargs) -> str:
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return f"metrics.fp_{scheme}"


def _counters_arg(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("counters")


def _obs_match(tr, result, args, kwargs):
    if result:
        tr.count("patterns.matches")


def _obs_labels(tr, result, args, kwargs):
    tr.count("brics.eligible", len(result))


def _obs_fragment(tr, result, args, kwargs):
    tr.count("brics.cuts", len(result.cleaved))


def _obs_preprocess(tr, result, args, kwargs):
    tr.keep_counts(result.stats)


def _obs_pretrain(tr, result, args, kwargs):
    tr.count("dataset.pretrain_pairs", len(result) // 2)
    tr.keep_counts(_counters_arg(args, kwargs))


def _obs_finetune(tr, result, args, kwargs):
    tr.count("dataset.finetune_pairs", len(result) // 2)
    tr.keep_counts(_counters_arg(args, kwargs))


def _obs_emit(tr, result, args, kwargs):
    tr.count("dataset.records", result.total_records)


def _obs_evaluate(tr, result, args, kwargs):
    tr.count("metrics.pairs", result.n)
    tr.count("metrics.fts_skipped", result.fts_skipped)
    tr.count("metrics.fts_pairs", result.n - result.fts_skipped)


def _obs_rejoin(tr, result, args, kwargs):
    tr.count("recombine.fragments", len(args[0].fragments))


# module -> function -> (span name or naming function, observer)
TRACED = {
    "fragsmith.molgraph": {
        "parse_smiles": ("molgraph.parse", None),
        "canonical_smiles": ("molgraph.canonicalize", None),
        "validate": ("molgraph.validate", None),
        "molecular_weight": ("molgraph.weight", None),
    },
    "fragsmith.patterns": {
        "match_at": ("patterns.match_at", _obs_match),
        "has_match": ("patterns.has_match", None),
    },
    "fragsmith.brics": {
        "find_brics_bonds": ("brics.label", _obs_labels),
        "cut_bonds": ("brics.cut", None),
        "fragment": ("brics.fragment", _obs_fragment),
        "load_rules": ("brics.load_rules", None),
    },
    "fragsmith.tokenizer": {
        "tokenize": (_tokenize_name, None),
        "detokenize": ("tokenizer.detokenize", None),
        "build_vocab": ("tokenizer.build_vocab", None),
    },
    "fragsmith.dataset": {
        "MoleculeLibrary.load": ("dataset.library_load", None),
        "preprocess": ("dataset.preprocess", _obs_preprocess),
        "make_pretrain_pairs": ("dataset.pretrain", _obs_pretrain),
        "make_finetune_pairs": ("dataset.finetune", _obs_finetune),
        "fill_template": ("dataset.fill_template", None),
        "emit_jsonl": ("dataset.emit", _obs_emit),
        "read_reactions": ("dataset.read_reactions", None),
        "load_templates": ("dataset.load_templates", None),
    },
    "fragsmith.metrics": {
        "fingerprint": (_fingerprint_name, None),
        "tanimoto": ("metrics.tanimoto", None),
        "bleu": ("metrics.bleu", None),
        "levenshtein": ("metrics.levenshtein", None),
        "evaluate": ("metrics.evaluate", _obs_evaluate),
    },
    "fragsmith.recombine": {
        "rejoin": ("recombine.rejoin", _obs_rejoin),
        "carbon_cap": ("recombine.carbon_cap", None),
    },
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("l")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._kept: dict[int, object] = {}

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (call outside any span)."""
        for arr in (self.name_of, self.start, self.end, self.parent):
            del arr[:]
        self.counters.clear()
        self._kept.clear()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def keep_counts(self, obj) -> None:
        """Report the fields of a counter dataclass as they stand at exit."""
        if obj is not None:
            self._kept[id(obj)] = obj

    def wrap(self, fn, name, observe=None):
        fixed = None if callable(name) else self.name_id(name)
        generator = inspect.isgeneratorfunction(fn)
        clock = time.perf_counter_ns
        stack, starts, ends = self._stack, self.start, self.end
        parents, name_of = self.parent, self.name_of

        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(fixed if fixed is not None else self.name_id(name(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(self, result, args, kwargs)
            return iter(result) if generator else result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever fragsmith binds it."""
        import fragsmith.cli  # noqa: F401  (imports every module)

        modules = [m for n, m in sys.modules.items() if n == "fragsmith" or n.startswith("fragsmith.")]
        for mod_name, table in TRACED.items():
            module = sys.modules[mod_name]
            for attr, (name, observe) in table.items():
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth].__func__
                    setattr(cls, meth, classmethod(self.wrap(original, name, observe)))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(original, name, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def summary(self) -> dict:
        n = len(self.start)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        root_ns = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_ns += dur[i]
        layers: dict[str, dict] = {}
        for i in range(n):
            entry = layers.setdefault(self.names[self.name_of[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (dur[i] - child[i]) / 1e9
            entry["total_s"] += dur[i] / 1e9
        counters = dict(self.counters)
        for obj in self._kept.values():
            if is_dataclass(obj):
                for f in fields(obj):
                    key = f"dataset.{f.name}"
                    counters[key] = counters.get(key, 0) + getattr(obj, f.name)
        return {
            "spans": n,
            "root_s": root_ns / 1e9,
            "layers": layers,
            "counters": counters,
        }

    def write(self, prefix: str) -> None:
        with open(prefix + ".spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            fh.writelines(
                f"{i}\t{names[self.name_of[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                for i in range(len(self.start))
            )
        with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import fragsmith.cli

    try:
        return fragsmith.cli.main(cli_args)
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
