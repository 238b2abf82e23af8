"""gridscreen benchmark: closed-loop workloads on case14, with a traced per-layer breakdown.

Run from the root of a gridscreen checkout:

    python3 perfbench/run.py --workload gen14 --seed 1 --seconds 20 --trace 0

One client sends the next op when the previous one is done.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run alternates traced and untraced ops, then runs the CLI
probe twice, and the last line carries the per-layer metrics.  Reported
times are scaled to a reference machine speed (clock.py).  The line before
the last describes the machine, the inputs and the run, with raw times.  A
failed correctness check makes the exit code 1.  perfbench/README.md has
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1      # at most nproc; one thread keeps small GEMMs steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3

# End-to-end metrics: name -> unit.  Every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "items_per_s": "1/s",
    "quality_pct": "%",
    "peak_rss_mb": "MB",
}


def _steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text(encoding="ascii").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_runtime_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, args, steal0, steal1) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas_info = {"name": None, "version": None}
    d_steal, d_total = steal1[0] - steal0[0], steal1[1] - steal0[1]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_steal_pct": 100.0 * d_steal / d_total if d_total else None,
        "cpu_steal_ticks": d_steal,
    }


def _percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def run_ops(workload, seconds: float, clock, tracer=None):
    """Closed loop for `seconds`; with a tracer, every other op is traced.

    Returns ([(OpResult or None, speed scale)], [traced flag]).  The scale
    is settled after the loop, when kernel runs from both sides of each op
    are known.
    """
    results, traced_flags = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not results:
        i += 1
        clock.tick()
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.tag = "op"
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.op(i, tracer if traced else None)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            result = None
            print(f"op {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        results.append((result, t0, time.perf_counter()))
        traced_flags.append(traced)
    clock.tick()
    return [(r, clock.scale(t0, t1)) for r, t0, t1 in results], traced_flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("gen14", "train14", "screen14"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "gridscreen" / "__init__.py").is_file() or not (root / "cases").is_dir():
        print("perfbench: src/gridscreen or cases/ not found; run from the root of a "
              "gridscreen checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import gridscreen

    if Path(gridscreen.__file__).resolve().parent != (root / "src" / "gridscreen").resolve():
        print(f"perfbench: imported gridscreen from {gridscreen.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass


def _run(root: Path, work: Path, args) -> int:
    # imported here: they load numpy and gridscreen, which main() has just located
    import layers
    import spans
    import workloads
    from clock import SpeedClock

    steal0 = _steal_ticks()
    clock = SpeedClock()
    setups = []   # (seconds, speed scale) per set-up
    for _ in range(SETUP_REPEATS):
        clock.sample_several()
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(root, work, args.seed)
        t1 = time.perf_counter()
        clock.sample_several()
        setups.append((t1 - t0, clock.scale(t0, t1)))

    tracer = spans.Tracer() if args.trace else None
    results, traced_flags = run_ops(workload, args.seconds, clock, tracer)
    errors = [e for r, _ in results if r is not None for e in r.errors]
    failed = sum(1 for r, _ in results if r is None or r.errors)
    untraced = [(r, f) for (r, f), t in zip(results, traced_flags) if r is not None and not t]
    ops = [r for r, _ in untraced]

    detail = {}
    if args.trace:
        num_branches = workload.network.num_branches
        for rep in range(2):
            tracer.install()
            try:
                errors += workloads.cli_probe(root, work, args.seed, tracer, rep)
                if rep == 0:
                    workloads.batch_probe(root, work, tracer)
            finally:
                tracer.uninstall()
            clock.sample_several()
        first = layers.exact_counts(tracer, num_branches, "probe0")
        second = layers.exact_counts(tracer, num_branches, "probe1")
        for key in layers.EXACT:
            if first.get(key) != second.get(key):
                errors.append(f"exact counter {key} differs between same-seed probes: "
                              f"{first.get(key)} vs {second.get(key)}")
        # a traced op span also covers screen14's interleaved full solve
        span_ms = [r.ms + (r.full_ms if r.full_ms == r.full_ms else 0.0) for r in ops]
        values = layers.layer_metrics(tracer, num_branches, span_ms, clock.scale())
        detail["missing_metrics"] = sorted(k for k, v in values.items() if v is None)
        spans_path = root / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_path)
        detail["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(root))}
        metrics = {k: {"value": (v if v is not None else 0.0), "unit": layers.UNITS[k]}
                   for k, v in values.items()}
    else:
        # times scaled to reference machine speed (clock.py); raw ones go to the detail line
        op_ms = [r.ms * f for r, f in untraced]
        raw_ms = [r.ms for r in ops]
        values = {
            "setup_s": statistics.median(s * f for s, f in setups),
            "op_ms_p50": _percentile(op_ms, 50),
            "op_ms_p90": _percentile(op_ms, 90),
            "items_per_s": 1e3 * sum(r.items for r in ops) / sum(op_ms),
            "quality_pct": 100.0 * sum(r.good for r in ops) / sum(r.total for r in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        detail.update({
            "ops": len(ops),
            "raw_op_ms_p50": _percentile(raw_ms, 50),
            "raw_op_ms_p90": _percentile(raw_ms, 90),
            "raw_items_per_s": 1e3 * sum(r.items for r in ops) / sum(raw_ms),
            "raw_setup_s": statistics.median(s for s, _ in setups),
        })
        if args.workload == "screen14":
            full = [r.full_ms * f for r, f in untraced]
            detail.update({
                "full_ms_p50": _percentile(full, 50),
                "raw_full_ms_p50": _percentile([r.full_ms for r in ops], 50),
                "time_pct": 100.0 * sum(op_ms) / sum(full),
                "violation_pct": 100.0 * sum(r.violated for r in ops) / len(ops),
            })

    detail.update({
        "setup_s_each": [s for s, _ in setups],
        "kernel_ms_p10_p50_p90": [_percentile(clock.samples, q) for q in (10, 50, 90)],
        "failed_frac": failed / len(results),
        "errors": errors[:10],
    })
    correct = not errors and failed == 0
    info = provenance(root, args, steal0, _steal_ticks())
    print(json.dumps({"perfbench": info, "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
