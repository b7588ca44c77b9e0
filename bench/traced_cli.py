"""Run one dpem CLI command in this process with span tracing installed.

    python bench/traced_cli.py SPANS_JSON RUN_ID <dpem arguments...>

Times the import of ``dpem.cli``, installs ``tracer.Tracer`` over the
package, runs ``dpem.cli.cli`` with ``standalone_mode=False`` inside a root
span named ``cli.<command>``, writes the spans to SPANS_JSON and exits with
the command's exit code.  Needs ``src`` on ``PYTHONPATH``, like the CLI.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, run_id, args = argv[0], argv[1], argv[2:]
    started = perf_counter()
    import dpem.cli

    import_s = perf_counter() - started
    tracer = Tracer(run_id)
    tracer.install()
    code = 0
    try:
        with tracer.span(f"cli.{args[0]}"):
            dpem.cli.cli.main(args, prog_name="dpem", standalone_mode=False)
    except SystemExit as exc:  # dpem's error handler exits with its code
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path, import_s=import_s, command=args)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
