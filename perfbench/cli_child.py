"""Traced `equiloc` process for the cli workload's traced run.

Usage: python -X importtime cli_child.py SPANS_FILE OP_ID ARGS...

Runs `equiloc.cli.main(ARGS)` exactly as the console script does, with the
layer spans recorded, and writes the spans to SPANS_FILE as a JSON list
even when main raises.
"""

import json
import sys

from tracer import Tracer


def run() -> int:
    spans_file, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import equiloc.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return equiloc.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(run())
