"""``repro serve`` with spans around the server's own layers.

The traced run of serve-mixed boots the server through this launcher
instead of ``python -m repro``: it wraps the layers in
``spans.SERVE_LAYERS``, runs the unchanged CLI, and when the server
stops (SIGINT) writes the spans and per-layer totals to the given file.

Usage: ``python3 perfbench/serve_traced.py <spans.json> serve [options]``
"""

import sys

import common  # noqa: F401  (puts the repository's src/ on sys.path)
from spans import SERVE_LAYERS, Tracer


def main() -> int:
    from repro.cli import main as cli_main

    tracer = Tracer(SERVE_LAYERS)
    tracer.install()
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
