#!/usr/bin/env python3
"""Benchmark of rgbdnav's user paths (synth, detect, eval, navsim).

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect_eval --seed 1 --seconds 20 --trace 0

Each op calls ``rgbdnav.cli.main`` in this process, one op at a time (a
closed loop with one client). Set-up builds the workload's inputs from the
seed several times and reports the median. Ops then run until ``--seconds``
have passed and at least two ops are done; every op's output is checked and
a failed check counts as a failed op without stopping the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics of the traced
ones (see tracer.py). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. A fuller record (environment,
seed, samples, failures) goes to .perfbench_out/ in the checkout.

BLAS/OpenMP thread pools are pinned to one thread so the process does no
work outside the benchmark's single thread of control; the values found
in the environment are recorded.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_OPS = 2
ENV_NOTE = "CPU frequency and the page cache are not controlled on this shared machine"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} unresolved)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads_found: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(ROOT),
        "thread_env_found": threads_found,
        "thread_env_used": {v: os.environ[v] for v in THREAD_VARS},
        "note": ENV_NOTE,
    }


def _finite(x: float):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # successful untraced ops
    items: int = 0  # views or simulation steps of those ops
    attempted: int = 0
    traced_ops: int = 0
    failures: list[str] = field(default_factory=list)


def measure(wl, work: Path, seed: int, seconds: float, tracer) -> Run:
    """Set up, then run ops until `seconds` have passed and MIN_OPS are done.

    With a tracer, even-numbered ops are traced and odd ones are not, so the
    untraced ops of the same run give the tracing overhead.
    """
    from workloads import OpFailed, run_cli

    run = Run()
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup(work, seed)
        run.setup_s.append(time.perf_counter() - t0)

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or run.attempted < MIN_OPS:
        traced = tracer is not None and run.attempted % 2 == 0
        op_dir = work / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir()
        calls = wl.calls(work, op_dir)
        run.attempted += 1
        gc.collect()
        token = tracer.begin_op() if traced else None
        t0 = time.perf_counter()
        try:
            outputs = [run_cli(argv) for argv in calls]
            dt = time.perf_counter() - t0
            if token is not None:
                tracer.end_op(token)
                token = None
            n = wl.check(op_dir, outputs)
        except OpFailed as e:
            run.failures.append(f"op {run.attempted}: {e}")
            continue
        except Exception:  # one broken op must not end the run; record it instead
            run.failures.append(f"op {run.attempted}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            if token is not None:
                tracer.end_op(token)
        if traced:
            run.traced_ops += 1
        else:
            run.op_s.append(dt)
            run.items += n
    return run


def end_to_end(wl, run: Run, lines: list[str]) -> dict:
    ok_time = sum(run.op_s)
    metrics = {
        "op_s": (statistics.median(run.op_s) if run.op_s else float("nan"), "s"),
        "items_per_s": (run.items / ok_time if ok_time else float("nan"), "1/s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = {"items_per_s": f"{wl.rate_name} (items_per_s)"}
    for key, (value, unit) in metrics.items():
        lines.append(f"  {shown.get(key, key):<28} {value:>12.6g} {unit}")
    failed = len(run.failures)
    lines.append(f"  {'error_rate':<28} {failed / run.attempted:>12.6g} ratio ({failed}/{run.attempted})")
    lines.append(
        f"op_s is the median of {len(run.op_s)} op(s); no higher percentile is reported "
        "because fewer than ten samples lie beyond any; "
        f"setup_s is the median of {len(run.setup_s)} set-ups; peak_rss_mb includes set-up"
    )
    return metrics


def per_layer(tracing, tracer, run: Run, lines: list[str], record: dict) -> dict:
    values = tracer.summary(run.op_s) if run.traced_ops else {}
    absent = tracer.absent()
    metrics = {}
    for name, unit, _ in tracing.per_layer_spec():
        metrics[name] = (values.get(name, float("nan")), unit)
        mark = "  absent" if any(name.startswith(fn + "_") for fn in absent) else ""
        lines.append(f"  {name:<44} {metrics[name][0]:>14.6g} {unit}{mark}")
    if values:
        parts = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        total = parts + values["trace.self_s"] + values["trace.uncovered_s"]
        lines.append(
            f"layer self times {parts:.6f} s + trace.self_s {values['trace.self_s']:.6f} s "
            f"+ uncovered {values['trace.uncovered_s']:.6f} s = {total:.6f} s "
            f"vs traced op_s {values['trace.op_s']:.6f} s ({run.traced_ops} traced op(s))"
        )
    lines.append(f"absent functions: {', '.join(absent) or 'none'}")
    lines.append(f"waiting time: {tracing.NO_WAIT_NOTE}")
    record.update(absent_functions=absent, should_move=tracing.SHOULD_MOVE, traced_ops=run.traced_ops)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rgbdnav" / "cli.py").is_file():
        print(f"perfbench: no rgbdnav sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads_found = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    env = environment(threads_found)
    tracer = tracing.Tracer() if args.trace else None
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = measure(wl, work, args.seed, args.seconds, tracer)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {wl.name} set-up failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    lines = [
        f"perfbench {wl.name}: seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} git={env['git_revision']}",
        f"thread env found: {threads_found}; used: 1 thread each",
        f"note: {ENV_NOTE}",
        f"closed loop, one client; {run.attempted} op(s) attempted, {failed} failed",
    ]
    record = {
        "workload": wl.name,
        "why": wl.why,
        "params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": run.setup_s,
        "op_s_samples": run.op_s,
        "failures": run.failures,
        "error_rate": failed / run.attempted,
    }
    if args.trace:
        metrics = per_layer(tracing, tracer, run, lines, record)
    else:
        metrics = end_to_end(wl, run, lines)
    record["metrics"] = {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    if args.trace and run.traced_ops:
        tracer.save(out_dir / f"{wl.name}-seed{args.seed}-spans.npz", record)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for line in lines + [f"  failure: {f}" for f in run.failures[:5]]:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
