"""Reference code listings: the k=3 extended Hamming code pushed through the
two transfer maps on the documented family structures.

The expanded listing shows the code carried into the 9-vertex digraph induced
by the (3, 1, 4) weighted-poset family; the collapsed listing shows the code
carried into the 7-element weighted poset induced by the (3, 1, 3) digraph
family.  Row order follows a fixed display basis so the listings are
byte-stable.
"""

from __future__ import annotations

from typing import List

from .bitvec import BitVector
from .classify import build_family_digraph, build_family_wposet
from .codes import BinaryLinearCode, codeword_masks, extended_hamming
from .digraph import condense, expand
from .transfer import map_code_collapse, map_code_expand

# display enumeration for the 16 codewords: messages ascending over this basis
_DISPLAY_BASIS = (
    0b11110000,  # support {5,6,7,8}
    0b01101001,  # support {1,4,6,7}
    0b01011010,  # support {2,4,5,7}
    0b00111100,  # support {3,4,5,6}
)


def display_codewords() -> List[BitVector]:
    """The 16 codewords of the k=3 code in display row order."""
    out = codeword_masks(BinaryLinearCode.from_basis(8, _DISPLAY_BASIS))
    if set(out) != set(codeword_masks(extended_hamming(3))):
        raise RuntimeError("display basis does not span the k=3 code")
    return [BitVector(8, m) for m in out]


def _spaced(v: BitVector) -> str:
    return " ".join(v.to_literal())


def expanded_table() -> str:
    """Codewords expanded into the digraph induced by the (3,1,4) family."""
    family = build_family_wposet(3, 1)
    _, bm = expand(family.relabeled())
    header = " ".join(bm.vertex_labels())
    rows = [_spaced(v) for v in map_code_expand(bm, display_codewords())]
    return "\n".join([header] + rows) + "\n"


def collapsed_table() -> str:
    """Codewords collapsed into the weighted poset induced by the (3,1,3) family."""
    family = build_family_digraph(3)
    _, bm = condense(family.relabeled())
    header = " ".join(bm.quotient_labels())
    rows = [_spaced(v) for v in map_code_collapse(bm, display_codewords())]
    return "\n".join([header] + rows) + "\n"


def table(which: int) -> str:
    if which == 2:
        return expanded_table()
    if which == 4:
        return collapsed_table()
    raise ValueError(f"no reference table {which}; choose 2 or 4")
