"""Run one qftalg command under the tracer, as ``python -m qftalg`` would.

Usage (the cli workload starts it in traced runs)::

    python3 traced_cli.py SPAWNED_AT TRACE_JSON ARG...

Writes the tracer's per-layer snapshot to ``TRACE_JSON`` even when the
command raises, then exits as the command does.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spawned_at, trace_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer(spawned_at)
    tracer.install_import_hook()
    tracer.wrap()
    from qftalg.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        Path(trace_path).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
