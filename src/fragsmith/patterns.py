"""Compact substructure pattern language over molecular graphs.

Supports the subset of SMARTS-style syntax the shipped rule tables use:

* atom primitives: element symbols (``C``, ``Cl``, aromatic ``c``/``n``/...),
  ``#n`` atomic number, ``*`` any, ``a``/``A`` aromatic/aliphatic,
  ``D<n>`` heavy-atom degree, ``H<n>`` total hydrogens, ``R``/``R0`` ring
  membership, ``+``/``-`` charges, ``$(...)`` recursive match;
* bond primitives: ``-`` ``=`` ``#`` ``:`` ``~`` and ``@`` (ring bond); an
  unspecified bond means single-or-aromatic;
* branches and single-digit ring closures; a bond may be written at
  either digit, or at both when the two texts are the same.

Bracket atoms and bonds are expressions with one operator table,
tightest first (an empty term, as in ``[;C]`` or ``C;C``, is an error)::

    !                       not   [!C]      C!@C
    & or juxtaposition      and   [C&R]     C-&@C, C-@C
    ,                       or    [N,O]     C-,=C
    ;                       and   [N,O;R]   C-,=;@C

Patterns are matched anchored: the first pattern atom maps onto a chosen
molecule atom, remaining atoms are assigned by backtracking.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .elements import ATOMIC_NUMBERS
from .molgraph import (
    AROMATIC, BOND_ORDERS, DOUBLE, Molecule, SINGLE, TRIPLE, bond_kind, parse_charge,
)

AtomTest = Callable[[Molecule, int], bool]
BondTest = Callable[[Molecule, int], bool]
# (element, aromatic) an atom test is pinned to; None when it admits several.
AtomKind = tuple[str, bool] | None


class PatternError(ValueError):
    pass


@dataclass
class _Node:
    test: AtomTest
    kind: AtomKind = None
    anchor: tuple[int, BondTest] | None = None  # parent node index + bond test
    extra: list[tuple[int, BondTest]] = field(default_factory=list)


# One matching step per non-root node: (anchor node index, anchor bond
# test, atom test, ring-closure tests as (earlier node index, bond test)).
_Step = tuple[int, BondTest, AtomTest, tuple[tuple[int, BondTest], ...]]


@dataclass
class Pattern:
    """Compiled pattern; match with :func:`match_at` / :func:`has_match`.

    The prefilter is derived from the atom kind that each compiled
    node's test pins its atom to, if any.

    ``root_kind``, when set, is the first node's kind: only atoms of that
    kind can anchor a match.

    ``required`` is a multiset keyed like ``Molecule.kind_counts``. It
    counts the pinned nodes per kind; per ``(kind, "@")``, the pinned
    nodes on the cycle a ring closure makes with the tree path between
    its two nodes, which can only map to ring atoms; and per
    :func:`~fragsmith.molgraph.bond_kind`, the node pairs joined by a
    plain ``=`` or ``#`` bond whose two nodes are pinned. Distinct nodes
    map to distinct atoms, and distinct pairs to distinct bonds, so a
    molecule with fewer of any key has no match.
    """

    nodes: list[_Node]
    text: str
    root_kind: AtomKind = None
    required: dict[tuple, int] = field(default_factory=dict)
    steps: tuple[_Step, ...] = ()


def _atomic_number(m: Molecule, idx: int) -> int:
    return ATOMIC_NUMBERS.get(m.atoms[idx].element, -1)


def _bond_order_test(order: int) -> BondTest:
    return lambda m, bi: m.bonds[bi].order == order


def _bond_single_or_aromatic(m: Molecule, bi: int) -> bool:
    return m.bonds[bi].order in (SINGLE, AROMATIC)


_BOND_PRIMS: dict[str, BondTest] = {
    **{ch: _bond_order_test(order) for ch, order in BOND_ORDERS.items()},
    "~": lambda m, bi: True,
    "@": lambda m, bi: m.ring_bonds >> bi & 1 == 1,
}


def _scan_bond(expr: str, i: int) -> tuple[BondTest, AtomKind, int]:
    """The bond primitive at ``expr[i]``: :func:`compile_pattern` gathers
    only bond characters into a bond expression."""
    return _BOND_PRIMS[expr[i]], None, i + 1


def _compile_bond(expr: str) -> BondTest:
    """An empty bond is single-or-aromatic; any other is an expression."""
    return _compile_expr(expr, _scan_bond)[0] if expr else _bond_single_or_aromatic


def _elem_test(symbol: str, aromatic: bool) -> AtomTest:
    def test(m: Molecule, idx: int) -> bool:
        a = m.atoms[idx]
        return a.element == symbol and a.aromatic == aromatic

    return test


# Primitives that take no argument.
_FIXED_PRIMS: dict[str, AtomTest] = {
    "*": lambda m, idx: True,
    "a": lambda m, idx: m.atoms[idx].aromatic,
    "A": lambda m, idx: not m.atoms[idx].aromatic,
    "R": lambda m, idx: m.ring_atoms >> idx & 1 == 1,
    "R0": lambda m, idx: m.ring_atoms >> idx & 1 == 0,
}
# One atom primitive: a fixed one; #n, Dn or Hn; a charge; the start of a
# recursive $(...); an element symbol (a two-letter one is checked
# against the element table after the match).
_PRIMITIVE = re.compile(
    r"([*aA]|R0?)|([#DH])([0-9]*)|([+-][0-9]+|\++|-+)|(\$\()|([A-Z][a-z]?|[a-z])"
)
# Both brackets of each kind, for finding the one that closes an opener.
_NESTING = {"(": re.compile(r"[()]"), "[": re.compile(r"[\[\]]")}


def _closing(text: str, start: int) -> int:
    """Index just past the bracket that closes the ``(`` or ``[`` at
    ``text[start]``, or -1 when it is never closed."""
    opener, depth = text[start], 0
    for m in _NESTING[opener].finditer(text, start):
        depth += 1 if m.group() == opener else -1
        if not depth:
            return m.end()
    return -1


def _scan_primitive(
    expr: str, i: int, in_bracket: bool = True
) -> tuple[AtomTest, AtomKind, int]:
    """Compile the primitive at ``expr[i]``; return its test, the atom
    kind it pins (element symbols only) and the index after it."""
    match = _PRIMITIVE.match(expr, i)
    if match is None:
        raise PatternError(f"bad atom primitive at {expr[i:]!r}")
    fixed, op, num, charge, recursive, sym = match.groups()
    end = match.end()
    if fixed:
        return _FIXED_PRIMS[fixed], None, end
    if op:
        if not num and op != "H":
            raise PatternError(f"{op!r} needs digits in {expr!r}")
        n = int(num or 1)
        if op == "#":
            return (lambda m, idx: _atomic_number(m, idx) == n), None, end
        if op == "D":
            return (lambda m, idx: m.degree(idx) == n), None, end
        return (lambda m, idx: m.atoms[idx].h_total == n), None, end
    if charge:
        val = parse_charge(charge)
        return (lambda m, idx: m.atoms[idx].formal_charge == val), None, end
    if recursive:
        end = _closing(expr, i + 1)
        if end < 0:
            raise PatternError(f"unbalanced '$(' in {expr!r}")
        sub = compile_pattern(expr[i + 2 : end - 1])
        return (lambda m, idx: match_at(sub, m, idx)), None, end
    # Outside brackets only Cl/Br are two-letter symbols ("Sc" is sulfur
    # followed by an aromatic carbon).
    if len(sym) == 2 and not (sym in ATOMIC_NUMBERS and (in_bracket or sym in ("Cl", "Br"))):
        sym = sym[0]
    aromatic = sym.islower()
    element = sym.upper() if aromatic else sym
    if element not in ATOMIC_NUMBERS:
        raise PatternError(f"unknown element {sym!r} in {expr!r}")
    return _elem_test(element, aromatic), (element, aromatic), i + len(sym)


def _first_kind(kinds) -> AtomKind:
    return next((k for k in kinds if k is not None), None)


def _compile_expr(expr: str, scan: Callable) -> tuple[AtomTest, AtomKind]:
    """Compile an atom or bond expression honoring !, &, ',' and ';',
    reading each primitive with ``scan``.

    The kind is pinned when an AND-ed term pins it: a non-negated element
    primitive, or an OR whose alternatives all pin the same kind."""
    # ';' splits AND groups; ',' splits OR alternatives inside a group;
    # adjacent/&-joined primitives AND together inside an alternative.
    groups: list[list[list[tuple[AtomTest, AtomKind]]]] = [[[]]]
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch in ";,&":
            if ch == ";":
                groups.append([[]])
            elif ch == ",":
                groups[-1].append([])
            elif not groups[-1][-1] or expr[i + 1 : i + 2] in ("", ";", ",", "&"):
                raise PatternError(f"empty term in {expr!r}")
            i += 1
            continue
        neg = False
        while i < len(expr) and expr[i] == "!":
            neg = not neg
            i += 1
        if i >= len(expr) or expr[i] in ";,&":
            raise PatternError(f"dangling '!' in {expr!r}")
        test, kind, i = scan(expr, i)
        if neg:
            test = (lambda m, idx, t=test: not t(m, idx))
            kind = None
        groups[-1][-1].append((test, kind))
    and_tests: list[AtomTest] = []
    group_kinds: list[AtomKind] = []
    for group in groups:
        alts: list[AtomTest] = []
        alt_kinds: set[AtomKind] = set()
        for seq in group:
            if not seq:
                raise PatternError(f"empty term in {expr!r}")
            tests = tuple(t for t, _ in seq)
            if len(tests) == 1:
                alts.append(tests[0])
            else:
                alts.append(lambda m, idx, ss=tests: all(t(m, idx) for t in ss))
            alt_kinds.add(_first_kind(k for _, k in seq))
        group_kinds.append(alt_kinds.pop() if len(alt_kinds) == 1 else None)
        if len(alts) == 1:
            and_tests.append(alts[0])
        else:
            and_tests.append(lambda m, idx, aa=tuple(alts): any(t(m, idx) for t in aa))
    kind = _first_kind(group_kinds)
    if len(and_tests) == 1:
        return and_tests[0], kind
    return lambda m, idx, tt=tuple(and_tests): all(t(m, idx) for t in tt), kind


def compile_pattern(text: str) -> Pattern:
    """Compile pattern text into a matchable structure."""
    nodes: list[_Node] = []
    prev: int | None = None
    pending = ""
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, str]] = {}
    bonds: list[tuple[int, int, str]] = []  # (node, node, bond text)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            j = _closing(text, i)
            if j < 0:
                raise PatternError(f"unterminated '[' in {text!r}")
            test, kind = _compile_expr(text[i + 1 : j - 1], _scan_primitive)
            i = j
        elif ch in "-=#:~@!;,&":
            pending += ch
            i += 1
            continue
        elif ch == "(":
            if prev is None:
                raise PatternError(f"branch before atom in {text!r}")
            branch_stack.append(prev)
            i += 1
            continue
        elif ch == ")":
            if not branch_stack:
                raise PatternError(f"unmatched ')' in {text!r}")
            prev = branch_stack.pop()
            i += 1
            continue
        elif ch in "0123456789":
            num = int(ch)
            if prev is None:
                raise PatternError(f"ring digit before atom in {text!r}")
            if num in ring_open:
                other, expr0 = ring_open.pop(num)
                if other == prev:
                    raise PatternError(f"ring closure {num} bonds a node to itself in {text!r}")
                if expr0 and pending and expr0 != pending:
                    raise PatternError(f"conflicting bonds on ring closure {num} in {text!r}")
                expr = expr0 or pending
                nodes[max(prev, other)].extra.append((min(prev, other), _compile_bond(expr)))
                bonds.append((other, prev, expr))
            else:
                ring_open[num] = (prev, pending)
            pending = ""
            i += 1
            continue
        else:
            test, kind, i = _scan_primitive(text, i, in_bracket=False)
        node = _Node(test=test, kind=kind)
        if prev is not None:
            node.anchor = (prev, _compile_bond(pending))
            bonds.append((prev, len(nodes), pending))
        elif pending:
            raise PatternError(f"dangling bond in {text!r}")
        pending = ""
        nodes.append(node)
        prev = len(nodes) - 1
    if ring_open:
        raise PatternError(f"unmatched ring digit in {text!r}")
    if branch_stack:
        raise PatternError(f"unmatched '(' in {text!r}")
    if not nodes:
        raise PatternError("empty pattern")
    required = Counter(n.kind for n in nodes if n.kind is not None)
    required.update(_ring_kinds(nodes))
    required.update(_bond_kinds(nodes, bonds))
    return Pattern(
        nodes=nodes,
        text=text,
        root_kind=nodes[0].kind,
        required=dict(required),
        steps=tuple((*n.anchor, n.test, tuple(n.extra)) for n in nodes[1:]),
    )


def _bond_kinds(nodes: list[_Node], bonds: list[tuple[int, int, str]]) -> list[tuple]:
    """The bond kinds of the pinned node pairs joined by a plain ``=``/``#``
    bond. A pair is counted once: a ring closure that repeats its anchor
    bond maps onto the same molecule bond."""
    pairs: dict[tuple[int, int], tuple] = {}
    for a, b, expr in bonds:
        order = BOND_ORDERS.get(expr)
        ka, kb = nodes[a].kind, nodes[b].kind
        if order in (DOUBLE, TRIPLE) and ka and kb:
            pairs.setdefault((min(a, b), max(a, b)), bond_kind(ka, order, kb))
    return list(pairs.values())


def _ring_kinds(nodes: list[_Node]) -> list[tuple]:
    """``(kind, "@")`` for each pinned node on some ring closure's cycle:
    the closure plus the anchor path between its nodes, when that path
    has at least two bonds (a closure parallel to an anchor bond closes
    no cycle)."""
    on_cycle: set[int] = set()
    for v, node in enumerate(nodes):
        for u, _ in node.extra:
            up = [u]  # u and its anchors, up to the root
            while nodes[up[-1]].anchor is not None:
                up.append(nodes[up[-1]].anchor[0])
            path = [v]
            while path[-1] not in up:
                path.append(nodes[path[-1]].anchor[0])
            path += up[: up.index(path[-1])]
            if len(path) >= 3:
                on_cycle.update(path)
    return [(nodes[i].kind, "@") for i in on_cycle if nodes[i].kind]


def match_at(pattern: Pattern, m: Molecule, root: int) -> bool:
    """True when the pattern matches with its first atom mapped to ``root``.

    Backtracks over one mapping list, node i -> mapping[i], following
    ``pattern.steps``: each step tries the unmapped neighbours of its
    anchor's atom against the anchor bond, the atom test and each ring
    closure to an earlier node.
    """
    if not pattern.nodes[0].test(m, root):
        return False
    steps = pattern.steps
    return not steps or _extend(steps, 0, [root], m)


def _extend(steps: tuple[_Step, ...], k: int, mapping: list[int], m: Molecule) -> bool:
    anchor, bond_test, atom_test, closures = steps[k]
    last = k + 1 == len(steps)
    for nbr, bi in m.neighbors[mapping[anchor]]:
        if nbr in mapping or not bond_test(m, bi) or not atom_test(m, nbr):
            continue
        if closures and not _closes(m, nbr, mapping, closures):
            continue
        if last:
            return True
        mapping.append(nbr)
        if _extend(steps, k + 1, mapping, m):
            return True
        mapping.pop()
    return False


def _closes(m: Molecule, atom: int, mapping: list[int], closures) -> bool:
    for other, bond_test in closures:
        target = mapping[other]
        for j, bi in m.neighbors[atom]:
            if j == target:
                break
        else:
            return False
        if not bond_test(m, bi):
            return False
    return True


def has_match(pattern: Pattern, m: Molecule) -> bool:
    """True when the pattern matches anchored at any atom."""
    counts = m.kind_counts
    for key, count in pattern.required.items():
        if counts.get(key, 0) < count:
            return False
    if pattern.root_kind is None:
        roots = range(len(m.atoms))
    else:
        roots = m.atoms_by_kind.get(pattern.root_kind, ())
    return any(match_at(pattern, m, i) for i in roots)
