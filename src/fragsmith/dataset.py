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
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .brics import FragmentParams, fragment
from .molgraph import (
    SmilesError,
    canonical_smiles,
    molecular_weight,
    parse_smiles,
    validate,
)
from .tokenizer import MOLECULE, Vocab, build_vocab, payload_length, tokenize

WEIGHT_LIMIT = 1000.0
TOKEN_LIMIT = 512

TASK_FRAGMENTATION = "fragmentation"
TASK_RECOMBINATION = "recombination"
TASK_RETROSYNTHESIS = "retrosynthesis"
TASK_REACTION = "reaction"

FORWARD = "forward"
BACKWARD = "backward"


class MissingSlotError(KeyError):
    """An instruction template references a slot with no value."""


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
        naming ``path:line`` for a malformed row."""
        records: list[LibraryRecord] = []
        k: float | None = None
        stats = LibraryStats()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line.startswith("# k="):
                    val = line[4:].strip()
                    k = float(val) if val else None
                    continue
                if line.startswith("# stats="):
                    stats = LibraryStats(**json.loads(line[8:]))
                    continue
                if not line or line.startswith("#"):
                    continue
                try:
                    smi, w, t = line.split("\t")
                    records.append(LibraryRecord(smi, float(w), int(t)))
                except ValueError:
                    raise LibraryFormatError(
                        f"{path}:{lineno}: expected canonical, weight and "
                        f"token length separated by tabs, got {line!r}"
                    ) from None
        return cls(records=records, stats=stats, k=k)


def preprocess(
    corpus: Iterable[str],
    vocab: Vocab | None = None,
    *,
    weight_limit: float = WEIGHT_LIMIT,
    token_limit: int = TOKEN_LIMIT,
) -> MoleculeLibrary:
    """Filter a SMILES stream into a MoleculeLibrary.

    Filters run in order: canonical dedup, validity, weight <= limit,
    token length <= limit. Unreadable lines are counted, never fatal.
    ``k`` is the mean canonical-SMILES length of the surviving records;
    output is sorted by canonical SMILES.
    """
    if vocab is None:
        vocab = build_vocab()
    stats = LibraryStats()
    seen: set[str] = set()
    records: list[LibraryRecord] = []
    for raw in corpus:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        stats.read += 1
        try:
            mol = parse_smiles(line)
            canon = canonical_smiles(mol)
        except (SmilesError, ValueError):
            stats.parse_failures += 1
            continue
        if canon in seen:
            stats.duplicates += 1
            continue
        seen.add(canon)
        if not validate(mol).valid:
            stats.validity_rejections += 1
            continue
        weight = molecular_weight(mol)
        if weight > weight_limit:
            stats.weight_rejections += 1
            continue
        token_length = payload_length(tokenize(canon, vocab, MOLECULE), vocab)
        if token_length > token_limit:
            stats.length_rejections += 1
            continue
        records.append(LibraryRecord(canon, weight, token_length))
    records.sort(key=lambda r: r.canonical)
    stats.kept = len(records)
    k = sum(len(r.canonical) for r in records) / len(records) if records else None
    return MoleculeLibrary(records=records, stats=stats, k=k)


# --- templates -------------------------------------------------------------

_TEMPLATE_CACHE: dict[str, dict[str, str]] = {}


def load_templates(path: str | Path | None = None) -> dict[str, str]:
    key = str(path) if path else "<default>"
    if key in _TEMPLATE_CACHE:
        return _TEMPLATE_CACHE[key]
    if path is None:
        text = resources.files("fragsmith.data").joinpath("templates.txt").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    templates: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        task, _, template = line.partition("\t")
        templates[task.strip()] = template.strip()
    _TEMPLATE_CACHE[key] = templates
    return templates


_SLOT_RE = re.compile(r"\{(\w+)\}")


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
        templates = load_templates()
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
            {
                "id": self.id,
                "task": self.task,
                "direction": self.direction,
                "instruction": self.instruction,
                "input": self.input,
                "output": self.output,
                "meta": dict(sorted(self.meta.items())),
            },
            ensure_ascii=False,
            separators=(", ", ": "),
        )

    @classmethod
    def from_json(cls, line: str) -> "InstructionRecord":
        obj = json.loads(line)
        return cls(
            id=obj["id"],
            task=obj["task"],
            direction=obj["direction"],
            instruction=obj["instruction"],
            input=obj["input"],
            output=obj["output"],
            meta=obj.get("meta", {}),
        )


def _pair_id(family: str, key: str) -> str:
    return hashlib.sha256(f"{family}|{key}".encode()).hexdigest()[:16]


@dataclass
class PairCounters:
    emitted_pairs: int = 0
    skipped_no_cut: int = 0
    skipped_unparseable: int = 0
    skipped_empty: int = 0
    skipped_filtered: int = 0


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
    for rec in lib.records:
        mol = parse_smiles(rec.canonical)
        fs = fragment(mol, params)
        if not fs.cleaved:
            counters.skipped_no_cut += 1
            continue
        frag_payload = ".".join(f.source_text for f in fs.fragments)
        prefix = _pair_id("pretrain", rec.canonical)
        meta = {
            "parent": prefix,
            "seed": params.seed,
            "n_fragments": len(fs.fragments),
        }
        counters.emitted_pairs += 1
        yield InstructionRecord(
            id=f"{prefix}-fwd",
            task=TASK_FRAGMENTATION,
            direction=FORWARD,
            instruction=fill_template(TASK_FRAGMENTATION, rec.canonical, meta, templates),
            input=rec.canonical,
            output=frag_payload,
            meta=meta,
        )
        yield InstructionRecord(
            id=f"{prefix}-bwd",
            task=TASK_RECOMBINATION,
            direction=BACKWARD,
            instruction=fill_template(TASK_RECOMBINATION, frag_payload, meta, templates),
            input=frag_payload,
            output=rec.canonical,
            meta=meta,
        )


def make_finetune_pairs(
    reactions: Iterable[tuple[list[str], str, str]],
    vocab: Vocab | None = None,
    templates: dict[str, str] | None = None,
    counters: PairCounters | None = None,
    *,
    weight_limit: float = WEIGHT_LIMIT,
    token_limit: int = TOKEN_LIMIT,
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
    for reactants, product, rtype in reactions:
        if not reactants or not product:
            counters.skipped_empty += 1
            continue
        try:
            product_mol = parse_smiles(product)
            reactant_mols = [parse_smiles(r) for r in reactants]
        except (SmilesError, ValueError):
            counters.skipped_unparseable += 1
            continue
        mols = [product_mol, *reactant_mols]
        if any(not validate(m).valid for m in mols):
            counters.skipped_unparseable += 1
            continue
        if any(molecular_weight(m) > weight_limit for m in mols):
            counters.skipped_filtered += 1
            continue
        product_c = canonical_smiles(product_mol)
        reactants_c = ".".join(canonical_smiles(m) for m in reactant_mols)
        if (
            payload_length(tokenize(product_c, vocab, MOLECULE), vocab) > token_limit
            or payload_length(tokenize(reactants_c, vocab, MOLECULE), vocab) > token_limit
        ):
            counters.skipped_filtered += 1
            continue
        prefix = _pair_id("finetune", f"{reactants_c}>>{product_c}|{rtype}")
        meta = {"reaction_type": rtype, "parent": prefix}
        counters.emitted_pairs += 1
        yield InstructionRecord(
            id=f"{prefix}-fwd",
            task=TASK_RETROSYNTHESIS,
            direction=FORWARD,
            instruction=fill_template(TASK_RETROSYNTHESIS, product_c, meta, templates),
            input=product_c,
            output=reactants_c,
            meta=meta,
        )
        yield InstructionRecord(
            id=f"{prefix}-bwd",
            task=TASK_REACTION,
            direction=BACKWARD,
            instruction=fill_template(TASK_REACTION, reactants_c, meta, templates),
            input=reactants_c,
            output=product_c,
            meta=meta,
        )


def read_reactions(path: str | Path) -> Iterator[tuple[list[str], str, str]]:
    """Read tab-separated reaction lines:
    ``reactants_dot_joined<TAB>product<TAB>reaction_type``."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
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
        return json.dumps(
            {
                "shards": self.shards,
                "total_records": self.total_records,
                "config": self.config,
            },
            indent=2,
            sort_keys=True,
        )


def emit_jsonl(
    records: Iterable[InstructionRecord],
    shard_size: int,
    out_dir: str | Path,
    config_echo: dict | None = None,
) -> Manifest:
    """Write records as JSONL shards plus a digest manifest.

    Records are sorted by id before writing, so emission is byte-stable
    regardless of producer order. Shards hold at most ``shard_size``
    records. I/O failures clean up partial output and re-raise.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.id)
    shard_infos: list[dict] = []
    written: list[Path] = []
    try:
        for start in range(0, len(ordered), shard_size):
            chunk = ordered[start : start + shard_size]
            name = f"shard-{len(shard_infos):05d}.jsonl"
            path = out / name
            payload = "".join(rec.to_json() + "\n" for rec in chunk).encode()
            with open(path, "wb") as fh:
                fh.write(payload)
            written.append(path)
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
        with open(out / "manifest.json", "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
    except OSError:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return manifest


def read_dataset(out_dir: str | Path) -> Iterator[InstructionRecord]:
    """Iterate records of an emitted dataset via its manifest."""
    out = Path(out_dir)
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    for shard in manifest["shards"]:
        with open(out / shard["path"], encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    yield InstructionRecord.from_json(line)
