"""Benchmark of the nudgelab twin experiment, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of twin_baseline, gain_sweep and fine_sampling (see
workloads.py), or ``all`` to run the three one after the other.  Every
operation runs in a fresh single-threaded interpreter (BLAS and OpenMP
pinned to one thread), so the program's module-level observed-run cache
and the peak RSS never carry over from one operation to the next.

With ``--trace 0`` operations repeat while another one still fits in S
seconds (at least one runs), and the run reports, as medians:
  setup_s      fresh interpreter start, ``import nudgelab`` and loading
               the generated config, sampled SETUP_SAMPLES extra times;
  wall_s       wall time of the operation's CLI calls;
  peak_rss_mb  ru_maxrss of the process that ran the operation.
fail_ratio (failed over attempted operations) is printed with them; the
result line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` the run alternates an untraced and a traced operation
and reports the per-layer metrics of spans.py from the traced ones, plus
trace.overhead_s, the difference of their median wall times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run leaves its config, the
per-operation results, traces and an environment record under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
OP_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(spec: dict, run_dir: Path, tag: str) -> dict:
    """Run op.py on ``spec`` in a fresh interpreter and return its result."""
    spec_path = run_dir / f"{tag}.spec.json"
    spec = dict(spec, result=str(run_dir / f"{tag}.json"))
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "op.py"), str(spec_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(t0)], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {OP_TIMEOUT_S:g} s"}
    if proc.returncode != 0:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(Path(spec["result"]).read_text())


def run_operation(workload: str, config_path: Path, run_dir: Path, index: int, traced: bool) -> dict:
    """One operation: its CLI calls in a fresh interpreter, then the check."""
    out_dir = run_dir / f"op{index:02d}"
    calls = workloads.calls(workload, str(config_path), str(out_dir))
    spec = {"config": str(config_path), "calls": calls, "trace": traced, "setup_only": False}
    result = run_child(spec, run_dir, f"op{index:02d}.result")
    if "crash" in result:
        result["problems"] = [result["crash"]]
    else:
        result["problems"] = workloads.check(workload, out_dir, calls, result["calls"])
    result["traced"] = traced
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def measure_setup(config_path: Path, run_dir: Path) -> list[float]:
    spec = {"config": str(config_path), "calls": [], "trace": False, "setup_only": True}
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one warms the file cache
        result = run_child(spec, run_dir, f"setup{i:02d}")
        if "crash" in result:
            raise BenchmarkError(f"set-up failed: {result['crash']}")
        if i:
            samples.append(result["setup_s"])
    return samples


def environment(numpy_version: str | None) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip()) if out.returncode == 0 else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    def commit():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "l1d_bytes": getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "threads": dict.fromkeys(THREAD_VARS, "1"),
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, lite: bool = False) -> dict:
    """Run one workload for ``seconds`` and return its summary."""
    run_dir = OUT_ROOT / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(workloads.config(workload, seed, lite), indent=2) + "\n")

    setup = [] if traced else measure_setup(config_path, run_dir)
    ops = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        if traced:
            ops.append(run_operation(workload, config_path, run_dir, len(ops), False))
        ops.append(run_operation(workload, config_path, run_dir, len(ops), traced))
        step = time.perf_counter() - op_start
        if time.perf_counter() - start + step > seconds:
            break

    finished = [op for op in ops if "crash" not in op]
    untraced = [op for op in finished if not op["traced"]]
    traced_ops = [op for op in finished if op["traced"]]
    if not untraced or (traced and not traced_ops):
        crashes = "; ".join(op["crash"] for op in ops if "crash" in op)
        raise BenchmarkError(f"no operation of each kind finished: {crashes}")
    setup += [op["setup_s"] for op in untraced]
    failed = sum(1 for op in ops if op["problems"])
    if traced:
        layers = [op["layers"] for op in traced_ops]
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(
            op["wall_s"] for op in traced_ops
        ) - statistics.median(op["wall_s"] for op in untraced)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in spans.LAYER_METRICS.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(op["wall_s"] for op in untraced),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in untraced),
        }
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END_UNITS.items()}

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "samples": {"setup_s": len(setup), "wall_s": len(untraced), "peak_rss_mb": len(untraced)},
        "metrics": metrics,
        "problems": {i: op["problems"] for i, op in enumerate(ops) if op["problems"]},
        "environment": environment(finished[0].get("numpy")),
        "operations": ops,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def report_lines(summary: dict) -> list[str]:
    lines = [
        f"{summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
        f"{summary['attempted']} operation(s), {summary['failed']} failed"
    ]
    for index, problems in summary["problems"].items():
        lines.append(f"  operation {index} failed: {'; '.join(problems)}")
    samples = summary["samples"]
    for name, metric in summary["metrics"].items():
        note = f"median of {samples[name]}" if name in samples else ""
        if name in spans.COMPUTED:
            note = "computed"
        value = metric["value"]
        shown = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:34s} {shown:<14s} {metric['unit']:6s} {note}")
    ratio = summary["failed"] / summary["attempted"]
    lines.append(f"  {'fail_ratio':34s} {ratio:<14.6g} {'1':6s} "
                 f"{summary['failed']} of {summary['attempted']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nudgelab" / "cli.py").is_file():
        print(f"error: no nudgelab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for summary in summaries:
        print("\n".join(report_lines(summary)))
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
