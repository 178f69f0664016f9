"""One benchmark child process: run the nonconv CLI once and record timings.

    python3 perfbench/child.py RESULT_JSON T0 MODE [TRACE_JSON] -- CLI_ARGS...

T0 is the parent's ``time.monotonic()`` just before it started this process,
so set-up time includes interpreter start.  Set-up ends when ``nonconv`` is
imported and ``build_experiment`` has returned (``simulate``) or when the
verification suite is entered (``verify``).  MODE is ``run`` (the whole
command), ``setup`` (stop once set-up is done) or ``trace`` (the whole command
under the tracer, writing spans to TRACE_JSON).  The result file holds the
set-up time, the peak resident memory, the CLI's exit code and, when traced,
the per-layer metrics.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    sep = sys.argv.index("--")
    result_path, t0, mode, *trace_path = sys.argv[1:sep]
    cli_args = sys.argv[sep + 1 :]
    t0 = float(t0)
    marks = {}

    import nonconv.cli as cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def setup_done():
        marks["setup_s"] = time.monotonic() - t0
        if mode == "setup":
            raise _SetupDone

    if cli_args[0] == "simulate":
        build = cli.build_experiment

        def build_then_mark(*args, **kwargs):
            experiment = build(*args, **kwargs)
            setup_done()
            return experiment

        cli.build_experiment = build_then_mark
    else:
        import nonconv.verification as verification

        suite = verification.run_suite

        def mark_then_suite(*args, **kwargs):
            setup_done()
            return suite(*args, **kwargs)

        verification.run_suite = mark_then_suite

    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0

    result = {
        "module": cli.__file__,
        "exit": code,
        "setup_s": marks.get("setup_s"),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write(trace_path[0])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
