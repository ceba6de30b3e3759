"""Traced stand-in for ``python -m fhn_torus``.

Usage: python3 bench/cli_shim.py TRACE_JSON <fhn-torus arguments>

Runs the same ``parse_and_dispatch`` as the console script with the
benchmark's tracer installed, then writes the spans and the process
start time to TRACE_JSON.  The package is imported from ``src`` of the
checkout this file lives in.
"""

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fhn_torus.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.task = argv[0] if argv else None
    tracer.install()
    try:
        code = fhn_torus.cli.parse_and_dispatch(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "spans": tracer.as_dicts()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
