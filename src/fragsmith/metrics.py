"""Evaluation metrics for generated SMILES.

Exact match (canonical equality), character-level BLEU-4 with add-one
smoothing, Levenshtein distance, three molecular fingerprint schemes
(circular/morgan, linear paths, structural keys) compared by Tanimoto
similarity, validity, top-k accuracy, and an aggregate report.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

from .molgraph import (
    AROMATIC,
    DOUBLE,
    Molecule,
    SINGLE,
    SmilesError,
    TRIPLE,
    canonical_smiles,
    parse_smiles,
)
from .parallel import ordered_map
from .patterns import compile_pattern, has_match

MORGAN = "morgan"
PATH = "path"
KEYS = "keys"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _hash_obj(obj) -> int:
    return _fnv(repr(obj).encode())


# Atom invariants take few distinct values (one per atom kind and
# environment), so their hashes are memoized in a bounded memo. It is
# keyed on the repr, not the tuple, because True == 1 in a tuple key.
_fnv_memo = lru_cache(maxsize=4096)(_fnv)


def _hash_invariant(inv: tuple) -> int:
    return _fnv_memo(repr(inv).encode())


@dataclass(frozen=True)
class FingerprintBitset:
    """Fixed-width bit vector; compare only matching scheme and width."""

    bits: int
    width: int
    scheme: str

    def __post_init__(self):
        if self.width < 1 or self.width & (self.width - 1):
            raise ValueError("width must be a power of two")

    def count(self) -> int:
        return self.bits.bit_count()


class FingerprintError(ValueError):
    pass


_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


def _atom_invariant(m: Molecule, i: int) -> tuple:
    a = m.atoms[i]
    return (
        a.element,
        a.aromatic,
        a.formal_charge,
        a.h_total,
        m.degree(i),
        a.isotope or 0,
        a.link_label or 0,
    )


def _morgan_hashes(m: Molecule, radius: int = 2) -> set[int]:
    inv = [_hash_invariant(_atom_invariant(m, i)) for i in range(len(m.atoms))]
    out = set(inv)
    current = inv
    for r in range(1, radius + 1):
        nxt = []
        for i in range(len(m.atoms)):
            env = sorted(
                (_ORDER_CODE[m.bonds[bi].order], current[j])
                for j, bi in m.neighbors[i]
            )
            nxt.append(_hash_obj((r, current[i], tuple(env))))
        out.update(nxt)
        current = nxt
    return out


def _path_hashes(m: Molecule, max_bonds: int = 7) -> set[int]:
    """Hashes of all simple linear bond paths of 1..max_bonds bonds.

    Forward and reverse rolling hashes are kept per DFS frame so each
    path contributes the direction-independent min(fwd, rev) without
    re-walking it; every path is found from both ends, so the set
    deduplicates the two traversals.
    """
    inv = [
        _hash_invariant((a.element, a.aromatic, a.formal_charge)) for a in m.atoms
    ]
    bond_code = [
        _ORDER_CODE[b.order] * 0x9E3779B97F4A7C15 & _MASK64 for b in m.bonds
    ]
    out: set[int] = set()
    prime = _FNV_PRIME

    for start in range(len(m.atoms)):
        on_path = [False] * len(m.atoms)
        on_path[start] = True
        root = inv[start]
        # frame: (tip, fwd_hash, rev_hash, prime**len, depth, neighbor iter)
        stack = [(start, root, root, prime, 1, iter(m.neighbors[start]))]
        while stack:
            tip, fwd, rev, pk, depth, it = stack[-1]
            advanced = False
            for j, bi in it:
                if on_path[j]:
                    continue
                code = bond_code[bi]
                f2 = ((fwd * prime + code) * prime + inv[j]) & _MASK64
                r2 = (inv[j] * pk * prime + code * pk + rev) & _MASK64
                out.add(min(f2, r2))
                if depth < max_bonds:
                    on_path[j] = True
                    pk2 = (pk * prime * prime) & _MASK64
                    stack.append((j, f2, r2, pk2, depth + 1, iter(m.neighbors[j])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if tip != start:
                    on_path[tip] = False
    return out


# --- structural keys -------------------------------------------------------

_KEY_ELEMENTS = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "Si", "Se", "As"]

_KEY_PATTERNS = [
    "C=O", "[C;D3](=O)", "C(=O)O", "C(=O)[O;H1]", "C(=O)N", "C(=O)OC",
    "NC(=O)N", "OC(=O)N", "C(=O)Cl", "C(=O)C(=O)", "CC(=O)C",
    "[N+](=O)[O-]", "C#N", "N=N", "N=O", "C=N", "N=C=O", "N=C=S",
    "C(=N)N", "NC(=N)N",
    "S=O", "S(=O)(=O)", "S(=O)(=O)N", "S(=O)(=O)O", "[S;D2](C)C", "C=S",
    "[O;D2](C)C", "[O;H1]", "[O;H1]c", "[O;H1]C",
    "[N;H2]", "[N;H1;D2]", "[N;D3;H0]", "[N;H2]c",
    "n", "[nH]", "o", "s", "[N;R]", "[O;R]", "[S;R]", "[C;R]", "c",
    "Fc", "Clc", "Brc", "Ic", "C(F)(F)F",
    "[N;H1]C=O", "[N;D3]C=O", "NS(=O)(=O)",
    "c1ccccc1", "c1ccncc1", "c1cncnc1", "c1ccoc1", "c1ccsc1",
    "c1cc[nH]c1", "c1c[nH]cn1",
    "C1CCCCC1", "C1CCNCC1", "C1CCOCC1", "C1CCCC1", "C1CC1", "C1CCOC1",
    "N1CCCC1",
    "C=C", "C#C", "c-c", "[C;D4]", "[C;H3]", "[C;H2;D2]", "[C;H1;D3]",
    "OCCO", "OCCN", "NCCN", "P(=O)(O)O", "[P;D4]",
    "cn", "co", "cs", "cC", "cO", "cN", "[c;D3]",
    "[N;R][C;R]=O", "[O;R][C;R]=O",
]

_HALOGENS = {"F", "Cl", "Br", "I"}


def _computed_keys(m: Molecule) -> list[bool]:
    elements = Counter(a.element for a in m.atoms)
    n_hal = sum(elements[h] for h in _HALOGENS)
    n_double = sum(1 for b in m.bonds if b.order == DOUBLE)
    cycle_rank = len(m.bonds) - len(m.atoms) + len(m.components)
    rings = m.small_rings
    sizes = {len(r) for r in rings}
    aro_sizes = {len(r) for r in rings if all(m.atoms[i].aromatic for i in r)}
    ring_bond_count = Counter()
    for bi in m.ring_bonds:
        for e in m.bonds[bi].endpoints:
            ring_bond_count[e] += 1
    return [
        any(a.formal_charge > 0 for a in m.atoms),
        any(a.formal_charge < 0 for a in m.atoms),
        any(a.isotope is not None for a in m.atoms),
        any(a.is_dummy for a in m.atoms),
        len(m.atoms) >= 10,
        len(m.atoms) >= 20,
        len(m.atoms) >= 30,
        elements["N"] >= 2,
        elements["N"] >= 3,
        elements["O"] >= 2,
        elements["O"] >= 3,
        elements["S"] >= 2,
        n_hal >= 2,
        n_hal >= 3,
        n_double >= 2,
        cycle_rank >= 1,
        cycle_rank >= 2,
        cycle_rank >= 3,
        cycle_rank >= 4,
        3 in sizes,
        4 in sizes,
        5 in sizes,
        6 in sizes,
        7 in sizes,
        8 in sizes,
        5 in aro_sizes,
        6 in aro_sizes,
        any(c >= 3 for c in ring_bond_count.values()),
        any(
            i in m.ring_atoms and m.atoms[i].element in ("N", "O", "S")
            for i in range(len(m.atoms))
        ),
    ]


_N_COMPUTED = 29
KEY_TABLE_SIZE = len(_KEY_ELEMENTS) + _N_COMPUTED + len(_KEY_PATTERNS)

_COMPILED_KEYS = None


def _compiled_key_patterns():
    global _COMPILED_KEYS
    if _COMPILED_KEYS is None:
        _COMPILED_KEYS = [compile_pattern(p) for p in _KEY_PATTERNS]
    return _COMPILED_KEYS


def _keys_bits(m: Molecule) -> list[bool]:
    elements = {a.element for a in m.atoms}
    bits = [el in elements for el in _KEY_ELEMENTS]
    bits.extend(_computed_keys(m))
    bits.extend(has_match(p, m) for p in _compiled_key_patterns())
    return bits


def fingerprint(m: Molecule, scheme: str, width: int = 2048) -> FingerprintBitset:
    """Fingerprint a molecule with one of the three schemes.

    morgan: circular environments of radius 0..2 hashed to ``width``.
    path: simple linear bond paths of length 1..7 hashed to ``width``.
    keys: the fixed structural-key table, one bit per key.
    """
    report = m.validity
    if not report.valid:
        raise FingerprintError(f"invalid molecule: {report.failures[0][1]}")
    if scheme == MORGAN:
        hashes = _morgan_hashes(m)
    elif scheme == PATH:
        hashes = _path_hashes(m)
    elif scheme == KEYS:
        bits = 0
        for k, on in enumerate(_keys_bits(m)):
            if on:
                bits |= 1 << (k % width)
        return FingerprintBitset(bits=bits, width=width, scheme=KEYS)
    else:
        raise FingerprintError(f"unknown scheme {scheme!r}")
    bits = 0
    for h in hashes:
        bits |= 1 << (h % width)
    return FingerprintBitset(bits=bits, width=width, scheme=scheme)


def tanimoto(a: FingerprintBitset, b: FingerprintBitset) -> float:
    """|a AND b| / |a OR b|; two all-zero bitsets count as identical."""
    if a.scheme != b.scheme or a.width != b.width:
        raise FingerprintError("tanimoto requires matching scheme and width")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


# --- string metrics --------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Minimum number of unit-cost edits (insert/delete/substitute).

    Bit-parallel over Python ints (Myers 1999, in Hyyro's 2001 form for
    the global distance): bit i of the vertical delta vectors holds
    D[i+1][j] - D[i][j] for the longer string ``a`` against the first j
    characters of ``b``, so the loop runs once per character of the
    shorter string.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)  # negative: ones above bit len(a) - 1
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _ngram_counts(chars: str, n: int) -> Counter:
    return Counter(tuple(chars[i : i + n]) for i in range(len(chars) - n + 1))


def bleu(pred: str, ref: str) -> float:
    """Character-level BLEU-4 with add-one smoothed precisions and a
    brevity penalty. Identical strings score 1.0, empty predictions 0.0."""
    if not pred:
        return 0.0
    if pred == ref:
        return 1.0
    log_sum = 0.0
    for n in range(1, 5):
        pred_counts = _ngram_counts(pred, n)
        ref_counts = _ngram_counts(ref, n)
        total = sum(pred_counts.values())
        matched = sum(min(c, ref_counts[g]) for g, c in pred_counts.items())
        log_sum += 0.25 * math.log((matched + 1) / (total + 1))
    bp = 1.0 if len(pred) >= len(ref) else math.exp(1 - len(ref) / len(pred))
    return bp * math.exp(log_sum)


def _try_parse(s: str) -> Molecule | None:
    try:
        m = parse_smiles(s)
    except SmilesError:
        return None
    return m if m.validity.valid else None


def _canonical(s: str) -> str | None:
    m = _try_parse(s)
    return None if m is None else canonical_smiles(m)


def exact_match(pred: str, ref: str) -> int:
    """1 when both parse and canonicalize identically, else 0."""
    pc = _canonical(pred)
    return int(pc is not None and pc == _canonical(ref))


def topk_accuracy(
    ranked_preds: list[list[str]], refs: list[str], k: int
) -> float:
    """Fraction of samples whose reference exact-matches one of the first
    k ranked predictions. Each reference is parsed once per sample."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(ranked_preds) != len(refs):
        raise ValueError("ranked_preds and refs length mismatch")
    if not refs:
        return 0.0
    hits = 0
    for preds, ref in zip(ranked_preds, refs):
        rc = _canonical(ref)
        hits += rc is not None and any(_canonical(p) == rc for p in preds[:k])
    return hits / len(refs)


# --- aggregate report ------------------------------------------------------

_FTS_SCHEMES = (PATH, KEYS, MORGAN)


@dataclass(frozen=True)
class EvalReport:
    exact: float
    bleu: float
    levenshtein: float
    fts_path: float | None
    fts_keys: float | None
    fts_morgan: float | None
    validity: float
    n: int
    fts_skipped: int

    def to_json(self) -> str:
        def norm(v):
            return None if v is None else round(v, 6)

        return json.dumps(
            {
                "exact": norm(self.exact),
                "bleu": norm(self.bleu),
                "levenshtein": norm(self.levenshtein),
                "fts_path": norm(self.fts_path),
                "fts_keys": norm(self.fts_keys),
                "fts_morgan": norm(self.fts_morgan),
                "validity": norm(self.validity),
                "n": self.n,
                "fts_skipped": self.fts_skipped,
            }
        )

    def format_table(self) -> str:
        headers = [
            "EXACT", "BLEU", "LEVENSHTEIN",
            "PATH FTS", "KEYS FTS", "MORGAN FTS", "VALIDITY",
        ]
        values = [
            f"{self.exact:.3f}",
            f"{self.bleu:.3f}",
            f"{self.levenshtein:.3f}",
            "-" if self.fts_path is None else f"{self.fts_path:.3f}",
            "-" if self.fts_keys is None else f"{self.fts_keys:.3f}",
            "-" if self.fts_morgan is None else f"{self.fts_morgan:.3f}",
            f"{self.validity:.3f}",
        ]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
        return head + "\n" + row


def _score_pairs(
    width: int, pairs: list[tuple[str, str]]
) -> list[tuple[bool, float, int, bool, tuple[float, ...] | None]]:
    """Per (pred, ref) pair: (pred valid, bleu, levenshtein, exact, the
    similarities in ``_FTS_SCHEMES`` order or None unless both sides are
    valid).

    Each distinct molecule, by canonical SMILES, is fingerprinted once
    per call and its bitsets reused. An exact hit needs none: both sides
    are one graph, so every similarity is tanimoto(x, x) == 1.0.
    """
    fingerprints: dict[str, dict[str, FingerprintBitset]] = {}

    def fingerprints_of(m: Molecule, canonical: str) -> dict[str, FingerprintBitset]:
        fps = fingerprints.get(canonical)
        if fps is None:
            fps = {s: fingerprint(m, s, width) for s in _FTS_SCHEMES}
            fingerprints[canonical] = fps
        return fps

    out = []
    for pred, ref in pairs:
        pm = _try_parse(pred)
        rm = _try_parse(ref)
        exact = False
        sims = None
        if pm is not None and rm is not None:
            pc = canonical_smiles(pm)
            rc = canonical_smiles(rm)
            exact = pc == rc
            if exact:
                sims = (1.0,) * len(_FTS_SCHEMES)
            else:
                pfp = fingerprints_of(pm, pc)
                rfp = fingerprints_of(rm, rc)
                sims = tuple(tanimoto(pfp[s], rfp[s]) for s in _FTS_SCHEMES)
        out.append((pm is not None, bleu(pred, ref), levenshtein(pred, ref), exact, sims))
    return out


def evaluate(
    preds: list[str],
    refs: list[str],
    *,
    invalid_as_zero: bool = False,
    width: int = 2048,
) -> EvalReport:
    """Score predictions against references with the full metric suite.

    Fingerprint similarities are averaged over mutually valid pairs and
    the skipped count reported; with ``invalid_as_zero`` those pairs
    score 0 instead of being skipped. Raises ValueError when the lists
    have different lengths.

    Pairs are scored in contiguous chunks (see ``parallel``) and summed
    here in input order, so the floating-point sums do not depend on
    the chunking.
    """
    if len(preds) != len(refs):
        raise ValueError("preds and refs must have equal length")
    n = len(preds)
    if n == 0:
        return EvalReport(0.0, 0.0, 0.0, None, None, None, 0.0, 0, 0)

    exact_sum = 0
    bleu_sum = 0.0
    lev_sum = 0
    valid_count = 0
    fts_sums = {s: 0.0 for s in _FTS_SCHEMES}
    fts_n = 0
    skipped = 0
    scores = ordered_map(partial(_score_pairs, width), list(zip(preds, refs)))
    for valid, bleu_score, distance, exact, sims in scores:
        valid_count += valid
        bleu_sum += bleu_score
        lev_sum += distance
        exact_sum += exact
        if sims is None:
            skipped += 1
            continue
        for s, sim in zip(_FTS_SCHEMES, sims):
            fts_sums[s] += sim
        fts_n += 1

    if invalid_as_zero:
        denom = n
    else:
        denom = fts_n
    if denom:
        fts = {s: fts_sums[s] / denom for s in _FTS_SCHEMES}
    else:
        fts = {s: None for s in _FTS_SCHEMES}
    return EvalReport(
        exact=exact_sum / n,
        bleu=bleu_sum / n,
        levenshtein=lev_sum / n,
        fts_path=fts[PATH],
        fts_keys=fts[KEYS],
        fts_morgan=fts[MORGAN],
        validity=valid_count / n,
        n=n,
        fts_skipped=skipped,
    )
