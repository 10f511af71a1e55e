"""Run the ``toricdual`` command line under the span tracer.

Usage: python cli_child.py SPANS_OUT CLI_ARG...

Behaves like ``python -m toricdual.cli CLI_ARG...`` and also writes the
per-name span summary (calls, total and self seconds) to SPANS_OUT as JSON.
"""

import json
import os
import sys

from tracer import Tracer


def main():
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    import toricdual.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = toricdual.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "maxima": tracer.maxima}, fh)
    return code


if __name__ == "__main__":
    sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
