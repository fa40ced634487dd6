"""The benchmark's workloads and the settings each one runs with.

This module imports nothing from perfcode, so the controller can check the
checkout before the library is known to be importable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# The console script `perfcode`, run in a fresh interpreter as
# `python3 -c CLI_MAIN arguments...`.
CLI_MAIN = "import sys; from perfcode.cli import entry; sys.argv[0] = 'perfcode'; entry()"


@dataclass(frozen=True)
class Plan:
    name: str
    why: str
    # extended_hamming(k) that setup_s builds; None when the workload shares no code.
    code_k: Optional[int]
    # setup_s imports perfcode.cli as well, because every operation is a CLI start.
    cli: bool
    # Tail percentile reported as op_tail_ms, fixed per workload so that runs of
    # different speed stay comparable.  It is the highest of 75/90/95/99 that
    # leaves at least ten samples beyond it at the seed commit's operation
    # count, or 75 where no percentile does (classify-k3, verify-h4, canon-iso).
    tail_pct: int
    # The fixed input set: the first fixed_ops operations of the seeded stream.
    # It is what the input and result digests cover, what each pass of a
    # traced run executes, and what peak_rss_mb is read after, so none of
    # them depends on how many operations a timed run manages.
    fixed_ops: int


PLANS: Dict[str, Plan] = {p.name: p for p in (
    Plan("classify-k3",
         "cold CLI classify --k 3 for both kinds: the only workload where the labeling DFS "
         "and canonical forms run at cold caches",
         code_k=3, cli=True, tail_pct=75, fixed_ops=2),
    Plan("verify-h4",
         "fresh 16-coordinate structures against h4 at r=2 by both routes: 2^16 weight "
         "tables, the codeword-split loop and numpy exhaustion dominate",
         code_k=4, cli=False, tail_pct=75, fixed_ops=4),
    Plan("radii-transfer",
         "condense/expand plus multi-pass radius searches on many small varied structures "
         "and non-linear images: table building weighs more, syndrome routes are bypassed",
         code_k=None, cli=False, tail_pct=99, fixed_ops=500),
    Plan("family-h5",
         "k=5 family structures decided at n=32 through the ideal census and the O(n^3) "
         "syndrome search: the only path with no 2^n tables",
         code_k=5, cli=False, tail_pct=99, fixed_ops=300),
    Plan("canon-iso",
         "canonical form and |Aut| of relabeled k=3 classes and a (4,4) split star: "
         "permutation brute force is most of the work, unlike in classify",
         code_k=None, cli=False, tail_pct=75, fixed_ops=3),
)}

# The seed used while tuning the benchmark, and a second seed used only to
# confirm a claimed gain (never while the change is written).
TUNING_SEED = 1
CONFIRM_SEED = 2
