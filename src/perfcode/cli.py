"""Command-line entry point binding all modules.

Exit codes: 0 on success, 1 when a requested check fails (for example the
code is not perfect at the given radius), 2 on usage or input-format errors
and on output paths that cannot be written.
All reports are plain UTF-8 text with a fixed column order.  `classify`
runs on one thread; it accepts `--threads N` and ignores it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from . import formats
from .classify import build_family_digraph, build_family_wposet
from .classify import classify as run_classification
from .bitvec import BitVector
from .codes import (
    BinaryLinearCode,
    MetricContext,
    check_perfect_conditions,
    codewords,
    extended_hamming,
    is_r_perfect,
)
from .digraph import condense, expand
from .tables import table
from .transfer import map_code_collapse, map_code_expand
from .wposet import sphere_size_formula, sphere_size_oracle

CODE_SHORTHAND = {"h2": 2, "h3": 3, "h4": 4, "h5": 5}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc.strerror or exc}"))


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Turn an OSError from making or writing path into an exit-2 message."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(_fail(f"cannot write {path}: {exc.strerror or exc}"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_file(path: str, parse_fn):
    text = _read(path)
    try:
        return parse_fn(text)
    except formats.FormatError as exc:
        raise SystemExit(_fail(f"{path}: {exc}"))


def _load_code(spec: str) -> BinaryLinearCode:
    if spec in CODE_SHORTHAND:
        return extended_hamming(CODE_SHORTHAND[spec])
    return _parse_file(spec, formats.parse_code)


def _load_context(path: str, kind: str) -> MetricContext:
    parse = formats.parse_wposet if kind == "wposet" else formats.parse_digraph
    return MetricContext.of(_parse_file(path, parse))


def _cmd_sphere(args) -> int:
    wp = _parse_file(args.wposet, formats.parse_wposet)
    parts = [f"formula={sphere_size_formula(wp, args.radius)}"]
    if args.oracle:
        zero = BitVector.zero(wp.size)
        parts.append(f"oracle={sphere_size_oracle(wp, zero, args.radius)}")
    print(" ".join(parts))
    return 0


def _cmd_check(args) -> int:
    code = _load_code(args.code)
    ctx = _load_context(args.structure, args.kind)
    verdicts = []
    if args.method in ("conditions", "both"):
        report = check_perfect_conditions(code, ctx, args.radius)
        print(
            f"method=conditions sphere_size={report.sphere_size}"
            f" expected_sphere_size={report.expected_sphere_size}"
            f" sphere_condition={str(report.sphere_condition).lower()}"
            f" partition_condition={str(report.partition_condition).lower()}"
        )
        if report.witness is not None:
            c, (x, y) = report.witness
            print(f"witness codeword={c} split={x}|{y}")
        verdicts.append(report.perfect)
    if args.method in ("exhaustive", "both"):
        ok = is_r_perfect(code, ctx, args.radius)
        print(f"method=exhaustive perfect={str(ok).lower()}")
        verdicts.append(ok)
    perfect = all(verdicts)
    print(f"{args.radius}-perfect: {str(perfect).lower()}")
    return 0 if perfect else 1


def _cmd_classify(args) -> int:
    report = run_classification(args.k, args.kind)
    admitting = report.admitting()
    print(f"kind={report.kind} k={report.k} classes={len(report.entries)} admitting={len(admitting)}")
    for entry in report.entries:
        vec = ",".join(str(x) for x in entry.vector.as_tuple())
        dist = ",".join(str(d) for d in entry.distribution)
        line = f"vector=({vec}) distribution=({dist}) admits={str(entry.admits).lower()}"
        if entry.witness is not None:
            line += " witness=" + ",".join(str(c) for c in entry.witness.labeling)
        else:
            line += f" labelings_covered={entry.labelings_covered}"
        print(line)
    if args.emit_witness:
        out = Path(args.emit_witness)
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
        for entry in admitting:
            vec = "-".join(str(x) for x in entry.vector.as_tuple())
            dist = "-".join(str(d) for d in entry.distribution)
            path = out / f"{report.kind}_{vec}_{dist}.{report.kind}"
            structure = entry.witness.relabeled()
            write = formats.write_wposet if report.kind == "wposet" else formats.write_digraph
            with _writing(path):
                path.write_text(write(structure), encoding="utf-8")
            print(f"witness-file={path}")
    return 0


def _cmd_induce(args) -> int:
    g = _parse_file(args.digraph, formats.parse_digraph)
    wp, bm = condense(g)
    sys.stdout.write(formats.write_wposet(wp))
    for q, block in enumerate(bm.blocks, start=1):
        print(f"block {q}: {' '.join(str(v) for v in block)}")
    return 0


def _cmd_expand(args) -> int:
    wp = _parse_file(args.wposet, formats.parse_wposet)
    g, bm = expand(wp)
    sys.stdout.write(formats.write_digraph(g))
    for q, block in enumerate(bm.blocks, start=1):
        print(f"block {q}: {' '.join(str(v) for v in block)}")
    return 0


def _cmd_map_code(args) -> int:
    code = _load_code(args.code)
    words = list(codewords(code))
    if args.direction == "collapse":
        g = _parse_file(args.structure, formats.parse_digraph)
        _, bm = condense(g)
        if code.length != bm.n:
            return _fail(f"code length {code.length} != digraph order {bm.n}")
        image = map_code_collapse(bm, words)
        print(" ".join(bm.quotient_labels()))
    else:
        wp = _parse_file(args.structure, formats.parse_wposet)
        g, bm = expand(wp)
        if code.length != bm.m:
            return _fail(f"code length {code.length} != weighted poset size {bm.m}")
        image = map_code_expand(bm, words)
        print(" ".join(bm.vertex_labels()))
    for v in image:
        print(v.to_literal())
    if len(image) != len(words):
        print(f"merged {len(words)} codewords into {len(image)}", file=sys.stderr)
    return 0


def _cmd_family(args) -> int:
    if args.kind == "wposet":
        if args.variant is None:
            return _fail("family --kind wposet requires --variant 1|2")
        labeled = build_family_wposet(args.k, args.variant)
        text = formats.write_wposet(labeled.relabeled())
        suffix = "wposet"
    else:
        labeled = build_family_digraph(args.k)
        text = formats.write_digraph(labeled.relabeled())
        suffix = "digraph"
    code_text = formats.write_code(extended_hamming(args.k))
    if args.out:
        structure_path = Path(f"{args.out}.{suffix}")
        code_path = Path(f"{args.out}.code")
        for path, content in ((structure_path, text), (code_path, code_text)):
            with _writing(path):
                path.write_text(content, encoding="utf-8")
        print(f"structure-file={structure_path}")
        print(f"code-file={code_path}")
    else:
        sys.stdout.write(text)
        print("---")
        sys.stdout.write(code_text)
    return 0


def _cmd_tables(args) -> int:
    sys.stdout.write(table(args.which))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcode",
        description="weighted-poset and digraph metrics, perfect-code checks, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", help="sphere sizes of a weighted poset metric")
    p.add_argument("--wposet", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("check", help="perfectness of a code in a structure metric")
    p.add_argument("--code", required=True, help="code file or shorthand h2..h5")
    p.add_argument("--structure", required=True)
    p.add_argument("--kind", choices=("wposet", "digraph"), required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--method", choices=("exhaustive", "conditions", "both"), default="both")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="exhaustive k=3 classification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("wposet", "digraph"), required=True)
    p.add_argument("--emit-witness", metavar="DIR")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("induce", help="weighted poset induced by a digraph")
    p.add_argument("--digraph", required=True)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("expand", help="digraph induced by a weighted poset")
    p.add_argument("--wposet", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("map-code", help="push a code through a transfer map")
    p.add_argument("--direction", choices=("collapse", "expand"), required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--code", required=True)
    p.set_defaults(func=_cmd_map_code)

    p = sub.add_parser("family", help="general-k family structures")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("wposet", "digraph"), required=True)
    p.add_argument("--variant", type=int, choices=(1, 2))
    p.add_argument("--out", metavar="PREFIX")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("tables", help="reference code listings")
    p.add_argument("--which", type=int, choices=(2, 4), required=True)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except formats.FormatError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
