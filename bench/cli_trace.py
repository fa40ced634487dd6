"""Run the perfcode command line with the tracer installed, then write the
spans and their summary as JSON.

usage: python3 cli_trace.py OUT.json OP_ID perfcode-arguments...
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import spans


def main(argv) -> int:
    out, op, cli_argv = Path(argv[0]), int(argv[1]), argv[2:]
    cli = importlib.import_module("perfcode.cli")
    tracer = spans.Tracer()
    tracer.op = op
    tracer.install()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
    out.write_text(json.dumps({"summary": tracer.summary(), "spans": tracer.spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
