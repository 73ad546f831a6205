"""Command-line surface for the fragmentation data pipeline.

Subcommands: preprocess, fragment, build, tokenize, eval, stats. Exit
codes: 0 success, 2 usage error, 3 unreadable input, 4 bad config,
1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .brics import FragmentationError, FragmentParams, fragment, fragment_cap
from .config import ConfigError, PipelineConfig, UnreadableFileError, read_lines, resolve_config
from .dataset import (
    DatasetFormatError,
    LibraryFormatError,
    MissingSlotError,
    MoleculeLibrary,
    PairCounters,
    TemplateError,
    emit_jsonl,
    load_templates,
    make_finetune_pairs,
    make_pretrain_pairs,
    preprocess,
    read_dataset,
    read_reactions,
)
from .metrics import evaluate
from .molgraph import SmilesError, molecular_weight, parse_smiles
from .tokenizer import MOLECULE, TokenizerError, UntokenizableError, Vocab, build_vocab, tokenize

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4

DEFAULT_K = 40  # fallback average SMILES length when no library supplies one


class CliInputError(Exception):
    pass


def _fail(category: str, message: str) -> None:
    print(f"error[{category}]: {message}", file=sys.stderr)


def _vocab_from(cfg: PipelineConfig) -> Vocab:
    try:
        if cfg.vocab:
            return Vocab.load(cfg.vocab)
        return build_vocab(group_file=cfg.groups)
    except (TokenizerError, OSError) as exc:
        raise ConfigError(str(exc)) from None


def _cmd_preprocess(args, cfg: PipelineConfig) -> int:
    vocab = _vocab_from(cfg)
    lib = preprocess((line for _, line in read_lines(args.corpus)), vocab)
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lib.save(out)
    stats = {
        "library": str(out),
        "k": lib.k,
        **lib.stats.__dict__,
    }
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def _fragment_one(smiles: str, params: FragmentParams) -> None:
    mol = parse_smiles(smiles)
    cap = fragment_cap(mol, params)
    fs = fragment(mol, params)
    print(f"# cap={cap} cuts={len(fs.cleaved)} fragments={len(fs.fragments)}")
    print(".".join(f.source_text for f in fs.fragments))


def _cmd_fragment(args, cfg: PipelineConfig) -> int:
    k = cfg.k or DEFAULT_K
    params = FragmentParams(k=k, alpha=cfg.alpha, seed=cfg.seed)
    if args.file:
        # A bad line is reported with its location; the rest still run.
        failed = False
        for where, line in read_lines(args.file):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                _fragment_one(line, params)
            except (SmilesError, FragmentationError) as exc:
                _fail("input", f"{where}: {exc}")
                failed = True
        return EXIT_ERROR if failed else EXIT_OK
    if args.smiles:
        _fragment_one(args.smiles, params)
    else:
        _fail("usage", "fragment needs a SMILES argument or --file")
        return EXIT_USAGE
    return EXIT_OK


def _cmd_build(args, cfg: PipelineConfig) -> int:
    vocab = _vocab_from(cfg)
    try:
        templates = load_templates(cfg.templates)
    except (TemplateError, OSError) as exc:
        raise ConfigError(str(exc)) from None
    lib = MoleculeLibrary.load(args.library)
    if cfg.k is not None:
        params = FragmentParams(k=cfg.k, alpha=cfg.alpha, seed=cfg.seed)
    else:
        params = lib.fragment_params(alpha=cfg.alpha, seed=cfg.seed)
    counters = PairCounters()
    records = list(make_pretrain_pairs(lib, params, templates, counters))
    if args.reactions:
        reactions = list(read_reactions(args.reactions, counters))
        records.extend(make_finetune_pairs(reactions, vocab, templates, counters))
    manifest = emit_jsonl(
        records,
        cfg.shards,
        cfg.out,
        config_echo={
            "seed": cfg.seed,
            "k": params.k,
            "alpha": cfg.alpha,
            "shard_size": cfg.shards,
            "library": str(args.library),
            "reactions": str(args.reactions) if args.reactions else None,
        },
    )
    print(
        json.dumps(
            {
                "out": cfg.out,
                "records": manifest.total_records,
                "shards": len(manifest.shards),
                "pairs": counters.emitted_pairs,
                **{k: v for k, v in vars(counters).items() if k != "emitted_pairs"},
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_tokenize(args, cfg: PipelineConfig) -> int:
    vocab = _vocab_from(cfg)
    ts = tokenize(args.text, vocab, args.kind, special_pairing=cfg.special_pairing)
    print(" ".join(str(i) for i in ts.tokens))
    if args.show_tokens:
        print(" ".join(vocab.tokens[i] for i in ts.tokens))
    return EXIT_OK


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    if args.dataset:
        refs_by_id = {rec.id: rec.output for rec in read_dataset(args.dataset)}
        preds_by_id = {}
        for where, line in read_lines(args.preds):
            if not line.strip():
                continue
            rec_id, _, pred = line.partition("\t")
            if rec_id in preds_by_id:
                raise CliInputError(f"{where}: duplicate prediction id {rec_id!r}")
            preds_by_id[rec_id] = pred
        shared = sorted(set(refs_by_id) & set(preds_by_id))
        if not shared:
            raise CliInputError("no prediction ids match the dataset")
        preds = [preds_by_id[i] for i in shared]
        refs = [refs_by_id[i] for i in shared]
        missing = len(refs_by_id) - len(shared)
        if missing:
            print(f"# {missing} dataset records had no prediction", file=sys.stderr)
    elif not args.refs:
        _fail("usage", "eval needs a references file or --dataset")
        return EXIT_USAGE
    else:
        # Lines pair by position: a blank prediction scores as invalid,
        # a blank reference has nothing to score against.
        preds = [line for _, line in read_lines(args.preds)]
        refs = []
        for where, ref in read_lines(args.refs):
            if not ref.strip():
                raise CliInputError(f"{where}: blank reference")
            refs.append(ref)
        if len(preds) != len(refs):
            raise CliInputError(
                f"{args.preds} has {len(preds)} lines, {args.refs} has {len(refs)}"
            )
    report = evaluate(preds, refs, invalid_as_zero=cfg.invalid_as_zero)
    print(report.format_table())
    print(report.to_json())
    return EXIT_OK


_WEIGHT_BANDS = [(0, 250), (250, 500), (500, 750), (750, 1000)]


def _cmd_stats(args, cfg: PipelineConfig) -> int:
    frag_hist = {str(i): 0 for i in range(1, 11)}
    frag_hist[">10"] = 0
    weight_hist = {f"{lo}-{hi}": 0 for lo, hi in _WEIGHT_BANDS}
    weight_hist[">1000"] = 0
    n_frag_records = 0
    for rec in read_dataset(args.dataset):
        if rec.task != "fragmentation":
            continue
        n_frag_records += 1
        n_frags = rec.output.count(".") + 1
        frag_hist[str(n_frags) if n_frags <= 10 else ">10"] += 1
        try:
            weight = molecular_weight(parse_smiles(rec.input))
        except SmilesError:
            continue
        for lo, hi in _WEIGHT_BANDS:
            if lo <= weight < hi or (hi == 1000 and weight == hi):
                weight_hist[f"{lo}-{hi}"] += 1
                break
        else:
            weight_hist[">1000"] += 1

    def show(title: str, hist: dict[str, int]) -> None:
        total = sum(hist.values()) or 1
        print(title)
        for key, count in hist.items():
            bar = "#" * round(40 * count / total)
            print(f"  {key:>7}  {count:7d}  {100 * count / total:5.1f}%  {bar}")

    print(f"fragmentation records: {n_frag_records}")
    show("fragment count histogram", frag_hist)
    show("molecular weight bands (g/mol)", weight_hist)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragsmith",
        description="Fragmentation-based instruction data pipeline and metrics.",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="seed for cut selection")
    parser.add_argument("--k", type=int, help="average SMILES length override")
    parser.add_argument("--alpha", type=float, help="elasticity factor")
    parser.add_argument("--shards", type=int, help="records per shard")
    parser.add_argument("--vocab", help="saved vocabulary file")
    parser.add_argument("--groups", help="functional-group file")
    parser.add_argument("--templates", help="instruction template file")
    parser.add_argument(
        "--invalid-as-zero", action="store_true", default=None,
        dest="invalid_as_zero",
        help="score fingerprint similarity of invalid predictions as 0",
    )
    parser.add_argument(
        "--special-pairing", choices=("mnemonic", "paper"), dest="special_pairing",
        help="which specials wrap molecules vs fragment sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="corpus -> filtered library file")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="library file to write")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("fragment", help="fragment a SMILES (prints the cap)")
    p.add_argument("smiles", nargs="?")
    p.add_argument("--file", help="fragment every SMILES in a file")
    p.set_defaults(func=_cmd_fragment)

    p = sub.add_parser("build", help="library (+reactions) -> JSONL shards")
    p.add_argument("--library", required=True)
    p.add_argument("--reactions", help="tab-separated reaction file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("tokenize", help="text -> token ids")
    p.add_argument("text")
    p.add_argument("--kind", choices=("molecule", "fragment_set"), default=MOLECULE)
    p.add_argument("--show-tokens", action="store_true")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("preds")
    p.add_argument("refs", nargs="?")
    p.add_argument("--dataset", help="score against a dataset dir by record id")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="dataset histograms")
    p.add_argument("dataset")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every argparse destination named after a config field is its flag.
        cfg = resolve_config(config_path=args.config, flag_values=vars(args))
    except (ConfigError, UnreadableFileError) as exc:
        _fail("config", str(exc))
        return EXIT_CONFIG
    try:
        return args.func(args, cfg)
    except ConfigError as exc:
        _fail("config", str(exc))
        return EXIT_CONFIG
    except MissingSlotError as exc:
        # load_templates checks every slot; a task with no template is left.
        _fail("config", f"{cfg.templates}: {exc.args[0]}")
        return EXIT_CONFIG
    except (CliInputError, UnreadableFileError, LibraryFormatError, DatasetFormatError) as exc:
        _fail("io", str(exc))
        return EXIT_IO
    except (SmilesError, FragmentationError, UntokenizableError) as exc:
        _fail("input", str(exc))
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        _fail("internal", str(exc))
        return EXIT_ERROR
    except RuntimeError as exc:
        # Imported here: commands that never start workers do not load it.
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        _fail("internal", f"a worker process died: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
