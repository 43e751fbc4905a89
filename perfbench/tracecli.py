"""`python -m polyaut.cli` with spans: traced cli runs use this entry.

Usage: python tracecli.py SPANS_JSON [polyaut arguments...]
Runs polyaut.cli.main on the arguments with the library traced, writes the
span rows to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

import polyaut.cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = polyaut.cli.main(sys.argv[2:])
    sys.stdout.flush()
    Path(sys.argv[1]).write_text(json.dumps(tracer.spans()))
    sys.exit(code)
