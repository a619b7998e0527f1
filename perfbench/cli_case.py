"""Run one `atk` command under the tracer, as a fresh process.

    python3 perfbench/cli_case.py <atk arguments...>

Behaves like the `atk` entry point (same stdout and exit code) and writes
one line to stderr, prefixed with `MARKER`, holding the time to import
`atkernel.cli` and the tracer's spans and counts for the command.
"""
import json
import sys
import time

MARKER = "@@perfbench "


def main() -> int:
    start = time.perf_counter()
    import atkernel.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = atkernel.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.active = False
    sys.stdout.flush()
    stats = dict(tracer.snapshot(), import_s=import_s)
    print(MARKER + json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
