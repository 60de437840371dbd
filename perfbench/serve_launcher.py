"""Run ``ecad`` in this process, optionally traced, recording peak RSS at exit.

Usage::

    python3 perfbench/serve_launcher.py --rss-out RSS.json [--trace-out SPANS.jsonl] \\
        serve --port 0 --data-dir DIR ...

Everything after the launcher's own options is handed to ``repro.cli.main``.
With ``--trace-out`` the layers are instrumented before the command starts
and the spans are written when the process exits, so the warm-serve workload
can time the service's layers from inside the server.
"""

from __future__ import annotations

import argparse
import atexit
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--rss-out", required=True, help="JSON file for the peak RSS at exit")
    parser.add_argument("--trace-out", help="JSONL file for the spans recorded in this process")
    options, command = parser.parse_known_args(argv)

    from repro.cli import main as ecad_main

    def write_rss() -> None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        Path(options.rss_out).write_text(json.dumps({"peak_rss_mb": peak}))

    atexit.register(write_rss)
    if options.trace_out:
        from perftrace import Tracer, instrument

        tracer = instrument(Tracer())
        atexit.register(tracer.dump, options.trace_out)
    return ecad_main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
