"""Traced stand-in for ``python -m qpaste``.

Usage: ``python benchmarks/traced_cli.py TRACE_OUT ARG...`` runs
``qpaste.cli.main(ARGS)`` under the tracer and writes the trace summary,
the time ``import qpaste`` took and whether it loaded numpy to TRACE_OUT.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qpaste

    import_ms = (time.perf_counter() - start) * 1000.0
    numpy_imported = "numpy" in sys.modules
    import qpaste.cli
    from tracer import Tracer

    tracer = Tracer("cli")
    tracer.install()
    code = qpaste.cli.main(argv)
    tracer.uninstall()
    tracer.dump(out, import_ms=import_ms, numpy_imported=numpy_imported)
    return code


if __name__ == "__main__":
    sys.exit(main())
