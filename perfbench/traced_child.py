"""Run one qhog command with every layer traced.

    python traced_child.py SPANS_JSON TRACE_ID QHOG_ARGS...

Installs the span wrappers in a fresh interpreter, calls
``qhog.cli.main(QHOG_ARGS)`` and, once it returns, writes the spans and
counters to SPANS_JSON.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    spans_path, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import qhog.cli

    from spans import Tracer, install

    tracer = Tracer(trace_id)
    install(tracer)
    try:
        return qhog.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
