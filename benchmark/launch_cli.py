"""Run `mosva` under the layer tracer: the traced form of one check-cli op.

Usage: python benchmark/launch_cli.py <mosva CLI arguments>

Times `import mosva.cli`, wraps every layer, calls the CLI's entry point, and
writes the process's trace as one `BENCH-TRACE <json>` line on stderr.  The
CLI's own stdout and exit code pass through unchanged.
"""

import json
import sys
import time

start = time.perf_counter()
import mosva.cli  # noqa: E402

import_s = time.perf_counter() - start

from layers import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = mosva.cli.main(sys.argv[1:])
finally:
    snapshot = tracer.snapshot()
    snapshot["import_s"] = import_s
    sys.stdout.flush()
    print("BENCH-TRACE " + json.dumps(snapshot), file=sys.stderr)
sys.exit(code)
