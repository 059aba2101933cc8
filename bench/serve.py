"""Request server for the benchmark: one interpreter that imports liecap
and answers CLI requests sent by ``run.py``.

Usage: python3 serve.py SRC_DIR [SPANS_FILE]

Each line on stdin is ``{"id": n, "argv": [...]}``; the argv is passed to
``liecap.cli.main`` with stdout and stderr captured, and one JSON line
per request comes back on stdout.  The first line written is a readiness
record naming the imported ``liecap`` file.  At end of input the server
writes its peak resident memory and, when SPANS_FILE is given, the spans
recorded by ``tracer.Tracer``, then exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    src = argv[0]
    spans_file = argv[1] if len(argv) > 1 else None
    sys.path.insert(0, src)
    import liecap
    import liecap.cli

    tracer = None
    if spans_file is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(liecap)

    out = sys.stdout
    out.write(json.dumps({"ready": True, "liecap": liecap.__file__}) + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        captured_out, captured_err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.begin_request(request["id"])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
                code = liecap.cli.main(request["argv"])
        except Exception:
            code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        reply = {
            "id": request["id"],
            "exit": code,
            "stdout": captured_out.getvalue(),
            "stderr": captured_err.getvalue(),
            "error": error,
            "seconds": seconds,
        }
        out.write(json.dumps(reply) + "\n")
        out.flush()
    if tracer is not None:
        tracer.write(spans_file)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"peak_rss_kb": peak_kb}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
