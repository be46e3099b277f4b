"""Run ``hamq.cli.main`` with the layer wrappers installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <hamq arguments...>

Writes the child's spans and counters to TRACE_JSON, then exits with the
CLI's own exit code.  ``hamq`` is imported from PYTHONPATH.
"""

import json
import sys

import hamq.cli

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.installed():
            return tracer.call("cli.main", hamq.cli.main, argv)
    finally:
        with open(out, "w") as f:
            json.dump(tracer.to_json(), f)


if __name__ == "__main__":
    sys.exit(main())
