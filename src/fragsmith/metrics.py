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
from dataclasses import asdict, dataclass
from functools import cache

from .molgraph import (
    DOUBLE,
    Molecule,
    SmilesError,
    atom_invariant,
    bit_indices,
    canonical_smiles,
    parse_smiles,
)
from .parallel import ordered_map
from .patterns import Pattern, compile_pattern, has_match

MORGAN = "morgan"
PATH = "path"
KEYS = "keys"
MORGAN_RADIUS = 2
PATH_MAX_BONDS = 7

_MASK64 = (1 << 64) - 1
# Base of the path polynomial (the 64-bit FNV prime).
_PATH_PRIME = 0x100000001B3


def _mix(h: int, x: int) -> int:
    """Fold the int ``x`` into the 64-bit hash ``h``: the splitmix64
    finalizer (Steele, Lea & Flood, OOPSLA 2014) over their XOR plus the
    golden-ratio increment."""
    z = (h ^ x) + 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _fold(h: int, xs) -> int:
    for x in xs:
        h = _mix(h, x)
    return h


def _atom_hashes(m: Molecule, n_fields: int | None = None) -> list[int]:
    """Per atom, the hash of the first ``n_fields`` fields (all by default)
    of its :func:`atom_invariant`, once per distinct invariant."""
    invariants = [atom_invariant(m, i) for i in range(len(m.atoms))]
    codes = {inv: _fold(0, inv[:n_fields]) for inv in set(invariants)}
    return [codes[inv] for inv in invariants]


def _check_width(width: int) -> None:
    if width < 1 or width & (width - 1):
        raise ValueError("width must be a power of two")


@dataclass(frozen=True)
class FingerprintBitset:
    """Fixed-width bit vector; compare only matching scheme and width."""

    bits: int
    width: int
    scheme: str

    def __post_init__(self):
        _check_width(self.width)

    def count(self) -> int:
        return self.bits.bit_count()


class FingerprintError(ValueError):
    pass


def _morgan_hashes(m: Molecule) -> set[int]:
    """ECFP-style environments (Rogers & Hahn 2010): the atom invariant,
    then per radius r up to MORGAN_RADIUS the fold of r, the atom's last
    hash and its sorted neighbour hashes, each XORed with its bond order."""
    orders = [b.order for b in m.bonds]
    current = _atom_hashes(m)
    out = set(current)
    for r in range(1, MORGAN_RADIUS + 1):
        envs = [
            (h, *sorted([current[j] ^ orders[bi] for j, bi in nbrs]))
            for h, nbrs in zip(current, m.neighbors)
        ]
        codes = {env: _fold(r, env) for env in set(envs)}
        current = [codes[env] for env in envs]
        out.update(codes.values())
    return out


def _path_hashes(m: Molecule) -> set[int]:
    """Hashes of all simple linear bond paths of 1..PATH_MAX_BONDS bonds.

    A path a0-b1-a1-...-bd-ad hashes forward as the base-P polynomial
    a0 P^2d + b1 P^(2d-1) + ... + ad and in reverse with the terms
    mirrored, both mod 2^64, and contributes the direction-independent
    min of the two. A recursive walk from every start atom extends both
    hashes by one bond per call: fwd' = fwd P^2 + (b P + a), and
    rev' = rev + a P^2d + b P^(2d-1), with the powers taken per depth.
    The last level only hashes and adds. Every path is found from both
    ends, so the set deduplicates the two traversals.
    """
    prime = _PATH_PRIME
    p2 = prime * prime & _MASK64
    # Atomic number, aromatic and formal charge.
    inv = _atom_hashes(m, 3)
    bond_code = [b.order * 0x9E3779B97F4A7C15 & _MASK64 for b in m.bonds]
    powers = [pow(prime, k, _MASK64 + 1) for k in range(2 * PATH_MAX_BONDS + 1)]
    # adj[i]: (neighbour, bond code, neighbour invariant hash) triples.
    adj = [
        [(j, bond_code[bi], inv[j]) for j, bi in nbrs] for nbrs in m.neighbors
    ]
    on_path = [False] * len(m.atoms)
    out: set[int] = set()
    add = out.add

    def extend(tip: int, fwd: int, rev: int, depth: int) -> None:
        # Paths of ``depth`` bonds ending one step past ``tip``.
        po, pe = powers[2 * depth - 1], powers[2 * depth]
        if depth == PATH_MAX_BONDS:
            for j, code, h in adj[tip]:
                if not on_path[j]:
                    f = (fwd * p2 + code * prime + h) & _MASK64
                    r = (h * pe + code * po + rev) & _MASK64
                    add(f if f < r else r)
            return
        for j, code, h in adj[tip]:
            if not on_path[j]:
                f = (fwd * p2 + code * prime + h) & _MASK64
                r = (h * pe + code * po + rev) & _MASK64
                add(f if f < r else r)
                on_path[j] = True
                extend(j, f, r, depth + 1)
                on_path[j] = False

    for start, h in enumerate(inv):
        on_path[start] = True
        extend(start, h, h, 1)
        on_path[start] = False
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
    for bi in bit_indices(m.ring_bonds):
        bond = m.bonds[bi]
        ring_bond_count[bond.a] += 1
        ring_bond_count[bond.b] += 1
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
        any(m.atoms[i].element in ("N", "O", "S") for i in bit_indices(m.ring_atoms)),
    ]


_N_COMPUTED = 29
KEY_TABLE_SIZE = len(_KEY_ELEMENTS) + _N_COMPUTED + len(_KEY_PATTERNS)


@cache
def _compiled_key_patterns() -> tuple[Pattern, ...]:
    """The structural-key patterns, compiled once per process."""
    return tuple(compile_pattern(p) for p in _KEY_PATTERNS)


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
    _check_width(width)
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
    return Counter([chars[i : i + n] for i in range(len(chars) - n + 1)])


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
        return json.dumps(
            {k: None if v is None else round(v, 6) for k, v in asdict(self).items()}
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
    pairs: list[tuple[str, str]]
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
            fps = {s: fingerprint(m, s) for s in _FTS_SCHEMES}
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
    scores = ordered_map(_score_pairs, list(zip(preds, refs)))
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
