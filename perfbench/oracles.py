"""Reference computations for the output checks, sharing no code with
fragsmith: full-matrix Levenshtein, a transcription of character BLEU-4
with add-one smoothing, the straight-line adaptive cap formula, a regex
SMILES heavy-atom counter, and the sha256 digests behind shard and
record ids."""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

_ATOM = re.compile(r"\[(\d*)(\*|se|as|[bcnops]|[A-Z][a-z]?)[^\]]*\]|(Cl|Br|[BCNOPSFIbcnops])")
_DUMMY = re.compile(r"\[\d+\*\]")


def levenshtein(a: str, b: str) -> int:
    """Edit distance from the full (len(a)+1) x (len(b)+1) matrix."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[len(a)][len(b)]


def bleu(pred: str, ref: str) -> float:
    """Character BLEU-4: geometric mean of add-one smoothed clipped n-gram
    precisions, n = 1..4, times the brevity penalty exp(1 - r/c) when the
    prediction is shorter. An empty prediction scores 0, an identical one 1."""
    if not pred:
        return 0.0
    if pred == ref:
        return 1.0
    log_precision = 0.0
    for n in range(1, 5):
        pred_grams = Counter(pred[i:i + n] for i in range(len(pred) - n + 1))
        ref_grams = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
        clipped = sum((pred_grams & ref_grams).values())
        total = sum(pred_grams.values())
        log_precision += math.log((clipped + 1) / (total + 1)) / 4
    c, r = len(pred), len(ref)
    brevity = math.exp(1 - r / c) if c < r else 1.0
    return brevity * math.exp(log_precision)


def fragment_cap(length: int, k: int, alpha: float) -> int:
    """cap(L) = L when L < k, else min(L, ceil(ceil(L / k) ** alpha))."""
    if length < k:
        return length
    chunks = -(-length // k)
    return min(length, math.ceil(chunks ** alpha))


def heavy_atoms(smiles: str) -> Counter:
    """Heavy atoms by element (aromatic folded to upper case), dummies and
    hydrogens excluded."""
    counts: Counter = Counter()
    for m in _ATOM.finditer(smiles):
        sym = m.group(2) or m.group(3)
        if sym in ("*", "H"):
            continue
        counts[sym[0].upper() + sym[1:]] += 1
    return counts


def dummies(smiles: str) -> int:
    return len(_DUMMY.findall(smiles))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_prefix(family: str, key: str) -> str:
    """Id prefix of a record pair: sha256 of ``family|key``, 16 hex digits."""
    return sha256_hex(f"{family}|{key}".encode())[:16]
