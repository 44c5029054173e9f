"""Run one qcc CLI command with the program's public functions traced.

    python bench/cli_shim.py SPANS.npz <qcc arguments...>

Used by the traced run of the cli-session workload in place of
``python -m qcc.cli``.  Stdout, stderr and the exit code are the command's
own; the spans, and the time the fresh interpreter took to import
``qcc.cli``, go to SPANS.npz.
"""

import sys
import time


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qcc.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return qcc.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
