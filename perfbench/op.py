"""One benchmark operation in a fresh interpreter.

Usage: python3 op.py SPEC T0

SPEC is a JSON file written by run.py:
  {"config": path, "calls": [[cli args], ...], "trace": bool,
   "setup_only": bool, "result": path}
T0 is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from it to the moment the generated config is
loaded and validated.  The calls go through ``nudgelab.cli.main`` in this
process, one after the other.  The result file records set-up time, wall
and CPU time, exit codes, captured output, peak RSS and, when traced, the
trace.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path, t0):
    with open(spec_path) as fh:
        spec = json.load(fh)

    import numpy
    from nudgelab import cli
    from nudgelab.config import load_config

    load_config(spec["config"])
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s, "numpy": numpy.__version__, "nudgelab": cli.__file__}
    if not spec["setup_only"]:
        result.update(run_calls(cli.main, spec["calls"], spec["trace"]))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


def run_calls(cli_main, calls, traced):
    tracer = None
    call = cli_main
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

        def call(argv):
            return tracer.span(f"cli.{argv[0]}", cli_main, argv)

    records = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        record = {"argv": argv, "exit_code": None, "error": None}
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record["exit_code"] = call(argv)
        except Exception:  # a crash is a failed operation, reported by the parent
            record["error"] = traceback.format_exc()
        record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
        records.append(record)
        if record["exit_code"] != 0:
            break
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "calls": records}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["trace"] = tracer.dump()
    return result


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
