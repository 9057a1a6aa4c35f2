"""Run one ``spherehess`` command line with every layer traced.

Usage: python [-X importtime] perfbench/launch.py SPANS_PATH -- ARGV...

Imports the package, wraps its public functions (see ``tracer.py``), then
calls ``spherehess.cli.console_main(ARGV)`` as the ``spherehess`` console
script does.  The spans are written to SPANS_PATH when the command ends,
whatever its exit status.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]

    import spherehess.cli
    import tracer  # after the package, so -X importtime charges it nothing

    trace = tracer.Tracer()
    tracer.install(trace)
    trace.op_id = 0
    try:
        return spherehess.cli.console_main(cli_argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        trace.op_id = -1
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
