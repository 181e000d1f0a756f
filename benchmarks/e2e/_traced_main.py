"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

Usage (set up by ``run.py``)::

    REPRO_BENCH_TRACE=spans.json REPRO_BENCH_PARENT=<span id> \\
        python benchmarks/e2e/_traced_main.py campaign --grid ...

Times ``import repro.cli`` as ``process.import``, installs the wrappers
from :mod:`tracing`, calls ``repro.cli.main(argv)`` and, when main
returns — including after the clean shutdown ``repro serve`` performs
on SIGTERM — writes the spans and kernel counters to
``$REPRO_BENCH_TRACE``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    rec = tracing.Recorder(root_parent=os.environ.get("REPRO_BENCH_PARENT"))
    with rec.span("process.import"):
        import repro.cli
        installed = tracing.Installed(rec)  # imports every module it patches
    code = 1
    try:
        code = repro.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse --version / usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        installed.remove()
        tracing.write_dump(os.environ["REPRO_BENCH_TRACE"], rec.spans(),
                           tracing.kernel_counters())
    return code


if __name__ == "__main__":
    sys.exit(main())
