"""Run one minuexp CLI command in a fresh interpreter with spans on.

Usage: python cli_traced.py RECORD.json ARGV...

Times ``import minuexp.cli``, wraps the public functions of every layer,
calls ``minuexp.cli.main(ARGV)`` with stdout captured, then writes the
captured text to the real stdout, the spans and counts to RECORD.json, and
exits with main's return code.
"""

import time

_T0 = time.perf_counter()
import minuexp.cli  # noqa: E402  (the import is what is timed)

_IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.job = 0
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = minuexp.cli.main(argv)
    finally:
        tracer.uninstall()
    text = captured.getvalue()
    sys.stdout.write(text)
    sys.stdout.flush()
    record = {
        "import_s": _IMPORT_S,
        "stdout_bytes": len(text.encode("utf-8")),
        "bookkeeping_s": tracer.bookkeeping_s,
        "spans": tracer.spans,
    }
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
