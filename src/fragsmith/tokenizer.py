"""Multi-scale SMILES tokenization.

The vocabulary mixes four scales: framing special tokens, the 16 dummy
link tokens ``[1*]``..``[16*]``, multi-atom functional-group tokens from
an editable data file (180 entries by default), and atom-level base
tokens. Tokenization is greedy longest-match with multi-unit tokens only
allowed on atom-token boundaries; dot-separated components are framed
individually with the begin/end specials of the stream kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

SPECIAL_TOKENS = ("<BOF>", "<EOF>", "<BOM>", "<EOM>")
DUMMY_TOKENS = tuple(f"[{i}*]" for i in range(1, 17))

CLASS_SPECIAL = "special"
CLASS_DUMMY = "dummy"
CLASS_GROUP = "group"
CLASS_BASE = "base"

MOLECULE = "molecule"
FRAGMENT_SET = "fragment_set"

# Which specials frame which stream kind. The mnemonic reading wraps a
# Molecule in <BOM>/<EOM> and a Fragment set in <BOF>/<EOF>; the swapped
# "paper" pairing is kept available behind the special_pairing switch.
_FRAMES = {
    "mnemonic": {MOLECULE: ("<BOM>", "<EOM>"), FRAGMENT_SET: ("<BOF>", "<EOF>")},
    "paper": {MOLECULE: ("<BOF>", "<EOF>"), FRAGMENT_SET: ("<BOM>", "<EOM>")},
}


class TokenizerError(ValueError):
    pass


class DuplicateTokenError(TokenizerError):
    pass


class MalformedGroupError(TokenizerError):
    pass


class UntokenizableError(TokenizerError):
    """A character outside the base rules was encountered."""


class UnknownTokenIdError(TokenizerError):
    pass


def _default_base_tokens() -> list[str]:
    tokens: list[str] = []
    tokens += list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    tokens += list("abcdefghijklmnopqrstuvwxyz")
    tokens += ["Cl", "Br"]
    tokens += [str(d) for d in range(10)]
    tokens += [f"%{n:02d}" for n in range(10, 100)]
    tokens += list("-=#:/\\()*[]+@")
    # Bracket atoms the canonical writer commonly emits, kept whole.
    tokens += [
        "[nH]", "[n+]", "[nH+]", "[N+]", "[N-]", "[NH+]", "[NH2+]", "[NH3+]",
        "[O-]", "[OH+]", "[o+]", "[S-]", "[s+]", "[C-]", "[CH-]", "[B-]",
        "[Se]", "[se]", "[Si]", "[P+]",
    ]
    return tokens


_UNIT_RE = re.compile(r"\[[^\[\]]*\]|%\d\d|Cl|Br|.", re.S)


def _split_units(text: str) -> list[tuple[int, int]]:
    """Atom-level unit spans: bracket expressions, %nn, two-letter
    elements, then single characters."""
    return [(m.start(), m.end()) for m in _UNIT_RE.finditer(text)]


@dataclass(frozen=True)
class Vocab:
    """Immutable token inventory. Index in ``tokens`` is the id."""

    tokens: tuple[str, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.classes):
            raise TokenizerError("tokens and classes length mismatch")
        if len(set(self.tokens)) != len(self.tokens):
            raise DuplicateTokenError("vocabulary contains duplicate tokens")

    @cached_property
    def lookup(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @cached_property
    def lengths_by_first(self) -> dict[str, tuple[int, ...]]:
        """First character -> lengths of the tokens it starts, longest first."""
        lengths: dict[str, set[int]] = {}
        for t in filter(None, self.tokens):
            lengths.setdefault(t[0], set()).add(len(t))
        return {ch: tuple(sorted(ls, reverse=True)) for ch, ls in lengths.items()}

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.classes:
            counts[c] = counts.get(c, 0) + 1
        return counts

    def id_of(self, token: str) -> int:
        return self.lookup[token]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (tok, cls) in enumerate(zip(self.tokens, self.classes)):
                fh.write(f"{i}\t{cls}\t{tok}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        tokens: list[str] = []
        classes: list[str] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise TokenizerError(f"vocab line {lineno}: expected 3 columns")
                idx, tok_cls, tok = int(parts[0]), parts[1], parts[2]
                if idx != len(tokens):
                    raise TokenizerError(f"vocab line {lineno}: ids must be dense")
                tokens.append(tok)
                classes.append(tok_cls)
        return cls(tokens=tuple(tokens), classes=tuple(classes))


def _validate_group(entry: str, lineno: int) -> None:
    if not entry:
        raise MalformedGroupError(f"group line {lineno}: empty entry")
    for opener, closer in (("(", ")"), ("[", "]")):
        depth = 0
        for ch in entry:
            if ch == opener:
                depth += 1
            elif ch == closer:
                depth -= 1
                if depth < 0:
                    raise MalformedGroupError(
                        f"group line {lineno}: unbalanced {closer!r} in {entry!r}"
                    )
        if depth:
            raise MalformedGroupError(
                f"group line {lineno}: unbalanced {opener!r} in {entry!r}"
            )
    allowed = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                  "0123456789-=#:/\\()*[]+@%")
    bad = set(entry) - allowed
    if bad:
        raise MalformedGroupError(
            f"group line {lineno}: characters {sorted(bad)} outside base rules"
        )


def read_group_file(path: str | Path | None = None) -> list[str]:
    """Read functional-group entries (one per line, ``#`` comments)."""
    if path is None:
        text = resources.files("fragsmith.data").joinpath(
            "functional_groups.txt"
        ).read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    out: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        # '#' is also the triple-bond character, so a comment only starts
        # at the line head or after whitespace.
        if line.lstrip().startswith("#"):
            continue
        entry = re.split(r"\s#", line, 1)[0].strip()
        if not entry:
            continue
        _validate_group(entry, lineno)
        out.append(entry)
    return out


def build_vocab(
    group_file: str | Path | None = None,
    base_rules: list[str] | None = None,
) -> Vocab:
    """Assemble the multi-scale vocabulary.

    ``group_file`` defaults to the shipped 180-entry table; pass a path
    to substitute it. ``base_rules`` overrides the default base token
    inventory (rarely needed). Duplicate tokens anywhere raise
    DuplicateTokenError.
    """
    base = list(base_rules) if base_rules is not None else _default_base_tokens()
    groups = read_group_file(group_file)

    tokens: list[str] = []
    classes: list[str] = []
    seen: set[str] = set()

    def add(tok: str, cls: str) -> None:
        if tok in seen:
            raise DuplicateTokenError(f"duplicate token {tok!r}")
        seen.add(tok)
        tokens.append(tok)
        classes.append(cls)

    for tok in SPECIAL_TOKENS:
        add(tok, CLASS_SPECIAL)
    for tok in DUMMY_TOKENS:
        add(tok, CLASS_DUMMY)
    for tok in base:
        add(tok, CLASS_BASE)
    for tok in groups:
        add(tok, CLASS_GROUP)
    return Vocab(tokens=tuple(tokens), classes=tuple(classes))


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[int, ...]
    source_kind: str


def _encode_component(
    text: str, v: Vocab, *, allow_groups: bool
) -> tuple[list[int], bool]:
    """Greedy longest-match over one dot-free component.

    Multi-unit tokens must start and end on atom-unit boundaries; inside
    a bracket unit, single characters may be consumed as a fallback so
    any bracket atom stays losslessly tokenizable.
    """
    units = _split_units(text)
    boundaries = {s for s, _ in units} | {e for _, e in units}
    bracket_of = [-1] * (len(text) + 1)
    for ui, (s, e) in enumerate(units):
        if text[s] == "[":
            for pos in range(s, e):
                bracket_of[pos] = ui

    lengths, lookup = v.lengths_by_first, v.lookup
    ids: list[int] = []
    used_group = False
    i = 0
    n = len(text)
    while i < n:
        matched = None
        for L in lengths.get(text[i], ()):
            if L > n - i:
                continue
            idx = lookup.get(text[i : i + L])
            if idx is None:
                continue
            cls = v.classes[idx]
            if cls == CLASS_GROUP and not allow_groups:
                continue
            if cls == CLASS_SPECIAL:
                continue  # framing tokens are never read from payload text
            aligned = i in boundaries and (i + L) in boundaries
            if not aligned:
                b = bracket_of[i]
                if b == -1 or L > 1 or bracket_of[i + L - 1] != b:
                    continue
            matched = (idx, L, cls)
            break
        if matched is None:
            raise UntokenizableError(
                f"character {text[i]!r} at position {i} is outside the base rules"
            )
        idx, L, cls = matched
        if cls == CLASS_GROUP:
            used_group = True
        ids.append(idx)
        i += L
    return ids, used_group


def tokenize(
    text: str,
    v: Vocab,
    kind: str = MOLECULE,
    *,
    special_pairing: str = "mnemonic",
) -> TokenStream:
    """Tokenize a SMILES string or dot-joined set.

    Each dot-separated component is wrapped in the begin/end specials of
    ``kind``. Greedy longest-match runs over the vocabulary; when group
    tokens would (pathologically) lengthen a component, the base
    segmentation is used instead so group tokens never hurt.
    """
    if kind not in (MOLECULE, FRAGMENT_SET):
        raise ValueError(f"kind must be {MOLECULE!r} or {FRAGMENT_SET!r}")
    try:
        begin_tok, end_tok = _FRAMES[special_pairing][kind]
    except KeyError:
        raise ValueError(f"unknown special_pairing {special_pairing!r}") from None
    begin, end = v.id_of(begin_tok), v.id_of(end_tok)

    ids: list[int] = []
    for comp in text.split("."):
        comp_ids, used_group = _encode_component(comp, v, allow_groups=True)
        if used_group:
            base_ids, _ = _encode_component(comp, v, allow_groups=False)
            if len(base_ids) < len(comp_ids):
                comp_ids = base_ids
        ids.append(begin)
        ids.extend(comp_ids)
        ids.append(end)
    return TokenStream(tokens=tuple(ids), source_kind=kind)


_BEGIN_SPECIALS = {"<BOF>", "<BOM>"}
_END_SPECIALS = {"<EOF>", "<EOM>"}


def detokenize(ts: TokenStream, v: Vocab) -> str:
    """Invert :func:`tokenize`: drop framing, restore dots between
    components. Raises UnknownTokenIdError for ids outside the vocab."""
    out: list[str] = []
    after_end = False
    for idx in ts.tokens:
        if not 0 <= idx < len(v.tokens):
            raise UnknownTokenIdError(f"token id {idx} not in vocabulary")
        tok = v.tokens[idx]
        if v.classes[idx] == CLASS_SPECIAL:
            if tok in _END_SPECIALS:
                after_end = True
            elif tok in _BEGIN_SPECIALS and after_end:
                out.append(".")
                after_end = False
            continue
        out.append(tok)
    return "".join(out)


def payload_length(ts: TokenStream, v: Vocab) -> int:
    """Token count excluding framing specials (the dataset filter measure)."""
    return sum(1 for idx in ts.tokens if v.classes[idx] != CLASS_SPECIAL)
