"""Plain-text file formats for posets, weighted posets, digraphs and codes.

All formats are line oriented, 1-based, and written the way they are read,
so serialize/parse round-trips are exact.  Blank lines are ignored.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bitvec import MAX_LENGTH, BitVector
from .codes import BinaryLinearCode
from .digraph import Digraph
from .poset import Poset
from .wposet import WeightedPoset


class FormatError(ValueError):
    """A malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield number, line


def _count(head, what: str) -> int:
    number, line = head
    try:
        return int(line)
    except ValueError:
        raise FormatError(f"expected {what} count, got {line!r}", number) from None


def _build(make, size: int, items, number: int):
    """make(size, items), its errors (a bad size, a cycle, a dependent
    basis) charged to the given head line: no single later line causes them."""
    try:
        return make(size, items)
    except ValueError as exc:
        raise FormatError(str(exc), number) from exc


def _relation(number: int, line: str, size: int) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) != 3 or parts[1] != "<":
        raise FormatError(f"expected `j < i`, got {line!r}", number)
    try:
        j, i = int(parts[0]), int(parts[2])
    except ValueError:
        raise FormatError(f"non-integer element in {line!r}", number) from None
    if not (1 <= j <= size and 1 <= i <= size):
        raise FormatError(f"relation {j} < {i} out of range 1..{size}", number)
    if j == i:
        raise FormatError(f"reflexive relation {j} < {i}", number)
    return j, i


def parse_poset(text: str) -> Poset:
    """First line the size m, then one strict relation `j < i` per line."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty poset file", 1)
    size = _count(lines[0], "element")
    relations = [_relation(number, line, size) for number, line in lines[1:]]
    return _build(Poset.from_relations, size, relations, lines[0][0])


def write_poset(p: Poset) -> str:
    lines = [str(p.size)]
    lines += [f"{j} < {i}" for j, i in p.cover_relations()]
    return "\n".join(lines) + "\n"


def _weight(number: int, line: str, size: int) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise FormatError(f"expected `w i pi`, got {line!r}", number)
    try:
        element, weight = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"non-integer in {line!r}", number) from None
    if not 1 <= element <= size:
        raise FormatError(f"weight for element {element} out of range 1..{size}", number)
    if weight < 1:
        raise FormatError(f"weight of element {element} must be >= 1, got {weight}", number)
    return element, weight


def parse_wposet(text: str) -> WeightedPoset:
    """Poset format plus at most one line `w i pi(i)` per element; weights default to 1."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty weighted-poset file", 1)
    size = _count(lines[0], "element")
    relations = []
    weights: Dict[int, int] = {}
    for number, line in lines[1:]:
        if not line.startswith("w "):
            relations.append(_relation(number, line, size))
            continue
        element, weight = _weight(number, line, size)
        if element in weights:
            raise FormatError(f"repeated weight for element {element}", number)
        weights[element] = weight
    poset = _build(Poset.from_relations, size, relations, lines[0][0])
    return WeightedPoset(poset, tuple(weights.get(i, 1) for i in range(1, size + 1)))


def write_wposet(wp: WeightedPoset) -> str:
    lines = [str(wp.size)]
    lines += [f"{j} < {i}" for j, i in wp.poset.cover_relations()]
    lines += [f"w {i} {wp.pi[i - 1]}" for i in range(1, wp.size + 1)]
    return "\n".join(lines) + "\n"


def _edge(number: int, line: str, n: int) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) != 3 or parts[1] != "->":
        raise FormatError(f"expected `u -> v`, got {line!r}", number)
    try:
        u, v = int(parts[0]), int(parts[2])
    except ValueError:
        raise FormatError(f"non-integer vertex in {line!r}", number) from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise FormatError(f"edge {u} -> {v} out of range 1..{n}", number)
    if u == v:
        raise FormatError(f"loop {u} -> {v} not allowed", number)
    return u, v


def parse_digraph(text: str) -> Digraph:
    """First line the vertex count n, then one edge `u -> v` per line."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty digraph file", 1)
    n = _count(lines[0], "vertex")
    edges = [_edge(number, line, n) for number, line in lines[1:]]
    return _build(Digraph.from_edges, n, edges, lines[0][0])


def write_digraph(g: Digraph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} -> {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> BinaryLinearCode:
    """First line `n k`, then k basis-vector literals."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty code file", 1)
    number, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise FormatError(f"expected `n k`, got {head!r}", number)
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer in {head!r}", number) from None
    if not 1 <= n <= MAX_LENGTH:
        raise FormatError(f"code length must be in 1..{MAX_LENGTH}, got {n}", number)
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} basis vectors, found {len(lines) - 1}", number)
    masks: List[int] = []
    for number, line in lines[1:]:
        try:
            v = BitVector.from_literal(line)
        except ValueError as exc:
            raise FormatError(str(exc), number) from exc
        if v.length != n:
            raise FormatError(f"basis vector length {v.length} != {n}", number)
        masks.append(v.bits)
    return _build(BinaryLinearCode.from_basis, n, masks, lines[0][0])


def write_code(code: BinaryLinearCode) -> str:
    lines = [f"{code.length} {code.dimension}"]
    lines += [BitVector(code.length, b).to_literal() for b in code.basis]
    return "\n".join(lines) + "\n"
