"""Instruction-dataset construction.

The pipeline runs corpus pre-processing (dedup, validity, weight and
token-length filters), builds paired forward/backward records for the
fragmentation/recombination pre-training tasks and the retrosynthesis/
reaction fine-tuning tasks, fills instruction templates, and writes
sharded JSONL with a digest manifest. Every stage is deterministic for a
fixed corpus, config and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Iterable, Iterator

from .brics import FragmentParams, fragment
from .config import read_data_lines, read_lines
from .molgraph import (
    SmilesError,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    validate,
)
from .parallel import ordered_map
from .tokenizer import MOLECULE, Vocab, build_vocab, payload_length, tokenize

WEIGHT_LIMIT = 1000.0
TOKEN_LIMIT = 512

TASK_FRAGMENTATION = "fragmentation"
TASK_RECOMBINATION = "recombination"
TASK_RETROSYNTHESIS = "retrosynthesis"
TASK_REACTION = "reaction"

FORWARD = "forward"
BACKWARD = "backward"

# family -> (forward task, backward task, the slots its templates may use:
# the payload and the keys of the records' meta).
_DUAL_TASKS = {
    "pretrain": (
        TASK_FRAGMENTATION, TASK_RECOMBINATION, {"input", "parent", "seed", "n_fragments"}
    ),
    "finetune": (TASK_RETROSYNTHESIS, TASK_REACTION, {"input", "parent", "reaction_type"}),
}
_TASK_SLOTS = {task: slots for fwd, bwd, slots in _DUAL_TASKS.values() for task in (fwd, bwd)}


class MissingSlotError(KeyError):
    """An instruction template references a slot with no value."""


class TemplateError(ValueError):
    """A template file line is malformed or uses a slot its records lack."""


class DatasetFormatError(ValueError):
    """A dataset manifest or shard line is not what ``emit_jsonl`` writes."""


class LibraryFormatError(ValueError):
    """A library file row is not ``canonical<TAB>weight<TAB>token_length``."""


@dataclass(frozen=True)
class LibraryRecord:
    canonical: str
    weight: float
    token_length: int


@dataclass
class LibraryStats:
    read: int = 0
    parse_failures: int = 0
    duplicates: int = 0
    validity_rejections: int = 0
    weight_rejections: int = 0
    length_rejections: int = 0
    kept: int = 0


@dataclass
class PairCounters:
    emitted_pairs: int = 0
    skipped_no_cut: int = 0
    skipped_unparseable: int = 0
    skipped_empty: int = 0
    skipped_filtered: int = 0
    skipped_malformed: int = 0


@dataclass
class MoleculeLibrary:
    """Filtered, deduplicated corpus plus its average SMILES length k."""

    records: list[LibraryRecord]
    stats: LibraryStats
    k: float | None  # None flags an empty library

    def fragment_params(self, alpha: float = 1.5, seed: int = 0) -> FragmentParams:
        if self.k is None:
            raise ValueError("empty library: k is undefined")
        return FragmentParams(k=max(1, round(self.k)), alpha=alpha, seed=seed)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# k={'' if self.k is None else repr(self.k)}\n")
            fh.write(f"# stats={json.dumps(asdict(self.stats))}\n")
            for rec in self.records:
                fh.write(f"{rec.canonical}\t{rec.weight!r}\t{rec.token_length}\n")

    @classmethod
    def load(cls, path: str | Path) -> "MoleculeLibrary":
        """Read a file written by :meth:`save`; raises LibraryFormatError
        naming ``path:line`` for a malformed header or row."""
        records: list[LibraryRecord] = []
        k: float | None = None
        stats = LibraryStats()
        for where, line in read_lines(path):
            if line.startswith("# k="):
                val = line[4:].strip()
                try:
                    k = float(val) if val else None
                except ValueError:
                    raise LibraryFormatError(f"{where}: k must be a number, got {val!r}") from None
                continue
            if line.startswith("# stats="):
                stats = _library_stats(line[8:], where)
                continue
            if not line or line.startswith("#"):
                continue
            try:
                smi, w, t = line.split("\t")
                records.append(LibraryRecord(smi, float(w), int(t)))
            except ValueError:
                raise LibraryFormatError(
                    f"{where}: expected canonical, weight and "
                    f"token length separated by tabs, got {line!r}"
                ) from None
        return cls(records=records, stats=stats, k=k)


def _library_stats(text: str, where: str) -> LibraryStats:
    """The ``# stats=`` header: a JSON object of ``LibraryStats`` counts."""
    names = [f.name for f in fields(LibraryStats)]
    try:
        counts = json.loads(text)
    except ValueError:
        counts = None
    if not (
        isinstance(counts, dict)
        and all(name in names and type(n) is int for name, n in counts.items())
    ):
        raise LibraryFormatError(
            f"{where}: stats must be a JSON object of integer counts named "
            f"{', '.join(names)}; got {text!r}"
        )
    return LibraryStats(**counts)


def _count_skip(counters: LibraryStats | PairCounters, skip: str) -> None:
    """Add one to the ``counters`` field named ``skip``."""
    setattr(counters, skip, getattr(counters, skip) + 1)


def _screen_lines(vocab: Vocab, lines: list[str]) -> list[tuple[str | None, LibraryRecord | str]]:
    """Per corpus line: (canonical, or None if unreadable; the kept record,
    or the name of the ``LibraryStats`` field that counts its rejection).
    A repeat within ``lines`` is screened once; the caller counts repeats."""
    seen: set[str] = set()
    out: list[tuple[str | None, LibraryRecord | str]] = []
    for line in lines:
        try:
            mol = parse_smiles(line)
            canon = canonical_smiles(mol)
        except (SmilesError, ValueError):
            out.append((None, "parse_failures"))
            continue
        if canon in seen:
            out.append((canon, "duplicates"))
            continue
        seen.add(canon)
        if not validate(mol).valid:
            out.append((canon, "validity_rejections"))
            continue
        weight = molecular_weight(mol)
        if weight > WEIGHT_LIMIT:
            out.append((canon, "weight_rejections"))
            continue
        token_length = payload_length(tokenize(canon, vocab, MOLECULE), vocab)
        if token_length > TOKEN_LIMIT:
            out.append((canon, "length_rejections"))
            continue
        out.append((canon, LibraryRecord(canon, weight, token_length)))
    return out


def preprocess(corpus: Iterable[str], vocab: Vocab | None = None) -> MoleculeLibrary:
    """Filter a SMILES stream into a MoleculeLibrary.

    Filters run in order: canonical dedup, validity, weight <=
    WEIGHT_LIMIT, token length <= TOKEN_LIMIT. Unreadable lines are counted, never fatal.
    ``k`` is the mean canonical-SMILES length of the surviving records;
    output is sorted by canonical SMILES.
    """
    if vocab is None:
        vocab = build_vocab()
    lines = [line for line in map(str.strip, corpus) if line and not line.startswith("#")]
    screened = ordered_map(partial(_screen_lines, vocab), lines)
    stats = LibraryStats(read=len(lines))
    seen: set[str] = set()
    records: list[LibraryRecord] = []
    for canon, outcome in screened:
        if canon in seen:
            outcome = "duplicates"
        elif canon is not None:
            seen.add(canon)
        if isinstance(outcome, str):
            _count_skip(stats, outcome)
        else:
            records.append(outcome)
    records.sort(key=lambda r: r.canonical)
    stats.kept = len(records)
    k = sum(len(r.canonical) for r in records) / len(records) if records else None
    return MoleculeLibrary(records=records, stats=stats, k=k)


# --- templates -------------------------------------------------------------

_SLOT_RE = re.compile(r"\{(\w+)\}")


def load_templates(path: str | Path | None = None) -> dict[str, str]:
    """Read ``task<TAB>template`` lines (``#`` comments) from ``path``
    (default: the shipped file), on every call. Raises TemplateError at
    ``path:line`` for a line without a tab or a slot its records lack."""
    templates: dict[str, str] = {}
    for where, line in read_data_lines(path, "templates.txt"):
        task, tab, template = line.partition("\t")
        if not tab:
            raise TemplateError(f"{where}: expected a task name, a tab and the template")
        task, template = task.strip(), template.strip()
        slots = _TASK_SLOTS.get(task)
        unfilled = [s for s in _SLOT_RE.findall(template) if slots and s not in slots]
        if unfilled:
            raise TemplateError(
                f"{where}: template slot {{{unfilled[0]}}} has no value "
                f"in {task} records"
            )
        templates[task] = template
    return templates


@cache
def default_templates() -> dict[str, str]:
    """The shipped templates, read once per process."""
    return load_templates()


def fill_template(
    task: str,
    payload: str,
    meta: dict | None = None,
    templates: dict[str, str] | None = None,
) -> str:
    """Substitute the payload and metadata into the task's template.

    Raises MissingSlotError when the template references a slot that is
    neither ``input`` nor present in ``meta``, or when the task has no
    template.
    """
    if templates is None:
        templates = default_templates()
    if task not in templates:
        raise MissingSlotError(f"no template for task {task!r}")
    template = templates[task]
    values = {"input": payload}
    if meta:
        values.update({k: str(v) for k, v in meta.items()})

    def sub(match: re.Match) -> str:
        slot = match.group(1)
        if slot not in values:
            raise MissingSlotError(f"template slot {{{slot}}} has no value")
        return values[slot]

    return _SLOT_RE.sub(sub, template)


# --- instruction records ---------------------------------------------------


@dataclass(frozen=True)
class InstructionRecord:
    id: str
    task: str
    direction: str
    instruction: str
    input: str
    output: str
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {**vars(self), "meta": dict(sorted(self.meta.items()))}, ensure_ascii=False
        )

    @classmethod
    def from_json(cls, line: str) -> "InstructionRecord":
        """Parse a record line: ``meta`` may be missing, unknown keys are ignored."""
        obj = json.loads(line)
        values = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
        if not all(isinstance(v, dict if k == "meta" else str) for k, v in values.items()):
            raise TypeError("meta must be an object and every other field a string")
        return cls(**values)


def _pair_id(family: str, key: str) -> str:
    return hashlib.sha256(f"{family}|{key}".encode()).hexdigest()[:16]


def _dual_records(
    family: str, key: str, source: str, target: str, meta: dict, templates: dict[str, str] | None
) -> Iterator[InstructionRecord]:
    """The forward record (source -> target) and its swapped backward twin,
    under one ``_pair_id`` prefix that is also their shared meta's parent."""
    prefix = _pair_id(family, key)
    meta = {**meta, "parent": prefix}
    forward, backward, _ = _DUAL_TASKS[family]
    for suffix, task, direction, text_in, text_out in (
        ("fwd", forward, FORWARD, source, target),
        ("bwd", backward, BACKWARD, target, source),
    ):
        instruction = fill_template(task, text_in, meta, templates)
        yield InstructionRecord(
            f"{prefix}-{suffix}", task, direction, instruction, text_in, text_out, meta
        )


def _fragment_rows(
    params: FragmentParams, canonicals: list[str]
) -> list[tuple[str, int] | str]:
    """Per library SMILES: (dot-joined fragment payload, fragment count),
    or ``"skipped_no_cut"`` when the molecule has no cleavable bond."""
    out: list[tuple[str, int] | str] = []
    for smi in canonicals:
        fs = fragment(parse_smiles(smi), params)
        if fs.cleaved:
            out.append((".".join(f.source_text for f in fs.fragments), len(fs.fragments)))
        else:
            out.append("skipped_no_cut")
    return out


def make_pretrain_pairs(
    lib: MoleculeLibrary,
    params: FragmentParams,
    templates: dict[str, str] | None = None,
    counters: PairCounters | None = None,
) -> Iterator[InstructionRecord]:
    """Paired fragmentation/recombination records for each library
    molecule with at least one cleavable bond.

    The forward record maps the molecule to its dot-joined dummy-labeled
    fragments; the backward record swaps input and output. Molecules with
    no cleavable bond are skipped and counted.
    """
    if counters is None:
        counters = PairCounters()
    cuts = ordered_map(
        partial(_fragment_rows, params), [rec.canonical for rec in lib.records]
    )
    for rec, cut in zip(lib.records, cuts):
        if isinstance(cut, str):
            _count_skip(counters, cut)
            continue
        frag_payload, n_fragments = cut
        counters.emitted_pairs += 1
        meta = {"seed": params.seed, "n_fragments": n_fragments}
        yield from _dual_records(
            "pretrain", rec.canonical, rec.canonical, frag_payload, meta, templates
        )


def _screen_reactions(
    vocab: Vocab, reactions: list[tuple[list[str], str, str]]
) -> list[tuple[str, str] | str]:
    """Per reaction: (canonical product, dot-joined canonical reactants),
    or the name of the ``PairCounters`` field that counts its skip."""
    out: list[tuple[str, str] | str] = []
    for reactants, product, _ in reactions:
        if not reactants or not product:
            out.append("skipped_empty")
            continue
        try:
            product_mol = parse_smiles(product)
            reactant_mols = [parse_smiles(r) for r in reactants]
        except (SmilesError, ValueError):
            out.append("skipped_unparseable")
            continue
        mols = [product_mol, *reactant_mols]
        if any(not validate(m).valid for m in mols):
            out.append("skipped_unparseable")
            continue
        if any(molecular_weight(m) > WEIGHT_LIMIT for m in mols):
            out.append("skipped_filtered")
            continue
        product_c = canonical_smiles(product_mol)
        reactants_c = ".".join(canonical_smiles(m) for m in reactant_mols)
        if (
            payload_length(tokenize(product_c, vocab, MOLECULE), vocab) > TOKEN_LIMIT
            or payload_length(tokenize(reactants_c, vocab, MOLECULE), vocab) > TOKEN_LIMIT
        ):
            out.append("skipped_filtered")
            continue
        out.append((product_c, reactants_c))
    return out


def make_finetune_pairs(
    reactions: Iterable[tuple[list[str], str, str]],
    vocab: Vocab | None = None,
    templates: dict[str, str] | None = None,
    counters: PairCounters | None = None,
) -> Iterator[InstructionRecord]:
    """Paired retrosynthesis/reaction records from (reactants, product,
    reaction_type) triples.

    The forward record maps product to reactants, the backward record
    reactants to product with the reaction type named in its instruction.
    Unparseable or over-limit entries are skipped and counted.
    """
    if vocab is None:
        vocab = build_vocab()
    if counters is None:
        counters = PairCounters()
    reactions = list(reactions)
    screened = ordered_map(partial(_screen_reactions, vocab), reactions)
    for (_, _, rtype), screen in zip(reactions, screened):
        if isinstance(screen, str):
            _count_skip(counters, screen)
            continue
        product_c, reactants_c = screen
        counters.emitted_pairs += 1
        key, meta = f"{reactants_c}>>{product_c}|{rtype}", {"reaction_type": rtype}
        yield from _dual_records("finetune", key, product_c, reactants_c, meta, templates)


def read_reactions(
    path: str | Path, counters: PairCounters | None = None
) -> Iterator[tuple[list[str], str, str]]:
    """Read tab-separated reaction lines:
    ``reactants_dot_joined<TAB>product<TAB>reaction_type``. Rows without
    exactly 3 columns are skipped and counted as ``skipped_malformed``."""
    for _, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            if counters is not None:
                counters.skipped_malformed += 1
            continue
        reactants = [r for r in parts[0].split(".") if r]
        yield (reactants, parts[1], parts[2])


# --- emission --------------------------------------------------------------


@dataclass
class Manifest:
    shards: list[dict]
    total_records: int
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def emit_jsonl(
    records: Iterable[InstructionRecord],
    shard_size: int,
    out_dir: str | Path,
    config_echo: dict | None = None,
) -> Manifest:
    """Write records as JSONL shards plus a digest manifest.

    Records are sorted by id before writing, so emission is byte-stable
    regardless of producer order. Shards hold at most ``shard_size``
    records. Each file is written under a temporary ``.partial-`` name and
    moved into place only once all are written, the manifest last, after
    any earlier ``manifest.json`` is removed. So on an I/O failure the
    temporary files are removed, the error is re-raised, and ``out_dir``
    holds its earlier dataset untouched or, when moving the files failed,
    no manifest.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.id)
    shard_infos: list[dict] = []
    written: list[tuple[Path, Path]] = []  # (temporary, final) path of each file opened

    def write(name: str, data: bytes) -> None:
        partial = out / f".partial-{name}"
        with open(partial, "wb") as fh:
            written.append((partial, out / name))
            fh.write(data)

    try:
        for start in range(0, len(ordered), shard_size):
            chunk = ordered[start : start + shard_size]
            name = f"shard-{len(shard_infos):05d}.jsonl"
            payload = "".join(rec.to_json() + "\n" for rec in chunk).encode()
            write(name, payload)
            shard_infos.append(
                {
                    "path": name,
                    "records": len(chunk),
                    "sha256": hashlib.sha256(payload).hexdigest(),
                }
            )
        manifest = Manifest(
            shards=shard_infos,
            total_records=len(ordered),
            config=config_echo or {},
        )
        write("manifest.json", (manifest.to_json() + "\n").encode())
        (out / "manifest.json").unlink(missing_ok=True)
        for partial, final in written:
            os.replace(partial, final)
    except OSError:
        for partial, _ in written:
            try:
                os.unlink(partial)
            except OSError:
                pass
        raise
    return manifest


def read_dataset(out_dir: str | Path) -> Iterator[InstructionRecord]:
    """Iterate records of an emitted dataset via its manifest. Raises
    DatasetFormatError naming the manifest or the ``shard:line`` at fault."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    text = "\n".join(line for _, line in read_lines(manifest_path))
    try:
        shards = [out / shard["path"] for shard in json.loads(text)["shards"]]
    except (ValueError, TypeError, KeyError) as exc:
        raise DatasetFormatError(f"{manifest_path}: not a dataset manifest: {exc}") from None
    for path in shards:
        for where, line in read_lines(path):
            if not line.strip():
                continue
            try:
                record = InstructionRecord.from_json(line)
            except (ValueError, TypeError) as exc:
                raise DatasetFormatError(f"{where}: not an instruction record: {exc}") from None
            yield record
