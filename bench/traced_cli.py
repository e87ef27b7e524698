"""Run one styledialog CLI command with layer spans recorded.

Usage: python bench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Behaves like `python -m styledialog.cli CLI_ARGS...` (same exit code, same
outputs) and writes the spans to SPANS_JSON when it exits.  On SIGTERM it
writes the spans, including the stack of spans still open, and exits 124.
"""

from __future__ import annotations

import signal
import sys

from layers import OP_SPANS, install
from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    from styledialog import cli

    tracer = Tracer()
    install(tracer, OP_SPANS)
    tracer.dump_on_sigterm(spans_path)
    try:
        return cli.main(cli_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
