"""Run the genis benchmark.

    python3 bench/run.py
        every workload, one at a time, each run in a fresh process: an
        untraced run, then a traced one; prints every metric with its unit
        and the verdict of the output checks
    python3 bench/run.py --workload toy_stage1 --seed 1 --seconds 36 --trace 0
        one run of one workload; the last line of standard output is a JSON
        object with the keys correct, attempted, failed and metrics

A run is one process: set-up, then a closed loop of ops for --seconds (one
client, workers = 1).  Set-up is done SETUP_REPEATS times and the median is
reported.  Each set-up imports genis afresh, generates and parses the config
and runs one warm-up op; only the first also imports genis's dependencies,
such as numpy, which a process loads once.  The timed loop uses the last
set-up.

With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
runs each op untraced and then traced, checks that both give bitwise equal
outputs, and reports the per-layer metrics.  The metrics, every op time,
the failures, the environment and a traced run's spans are written to
.bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"
WORKLOADS = ("toy_stage1", "target_sweep", "pilot_grid")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 180

# op_ms_p50 is printed but not listed: see "Noise" in README.md
END_TO_END = {
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pipeline.config_ms": "ms",
    "pipeline.op_self_ms": "ms",
    "samplers.stage1_ms": "ms",
    "samplers.stage2_ms": "ms",
    "samplers.pilot_ms": "ms",
    "samplers.draws": "count",
    "samplers.regen_tours": "count",
    "samplers.imh_move_ratio": "ratio",
    "reverse_logistic.estimate_ratios_ms": "ms",
    "reverse_logistic.newton_iterations": "count",
    "reverse_logistic.log_density_matrices_ms": "ms",
    "reverse_logistic.fit_self_ms": "ms",
    "reverse_logistic.info_self_ms": "ms",
    "reverse_logistic.omega_bm_self_ms": "ms",
    "reverse_logistic.omega_rs_self_ms": "ms",
    "weights.pilot_grid_ms": "ms",
    "weights.grid_points": "count",
    "weights.grid_ok_ratio": "ratio",
    "importance.estimate_family_ms": "ms",
    "importance.per_target_us": "us",
    "importance.targets_failed": "count",
    "densities.log_density_calls": "count",
    "densities.log_density_points": "count",
    "regen.collect_tours_ms": "ms",
    "cli.write_csv_ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.overhead_ms": "ms",
}
# the per-layer times of an op's direct child spans, by the module they call
LAYER_SPANS = {
    "samplers": ("samplers.stage1_ms", "samplers.stage2_ms", "samplers.pilot_ms"),
    "reverse_logistic": ("reverse_logistic.estimate_ratios_ms",),
    "weights": ("weights.pilot_grid_ms",),
    "importance": ("importance.estimate_family_ms",),
    "regen": ("regen.collect_tours_ms",),
    "cli": ("cli.write_csv_ms",),
    "pipeline": ("pipeline.config_ms", "pipeline.op_self_ms"),
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_ops():
    """Import the workloads, and with them genis, afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "genis" / "__init__.py").is_file():
        raise SystemExit(f"error: no genis package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m in ("ops", "genis") or m.startswith("genis.")]:
        del sys.modules[name]
    ops = importlib.import_module("ops")
    genis = sys.modules["genis"]
    if not Path(genis.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: genis was imported from {genis.__file__}, not {src}")
    return ops


class Run:
    """One run: set-up SETUP_REPEATS times, then a closed loop of ops."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.next_op = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.setup_s: list[float] = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.ops = import_ops()
            self.wl = self.ops.WORKLOADS[workload](seed, workdir)
            self.attempt(self.take_op())
            self.setup_s.append(time.perf_counter() - t0)

    def take_op(self) -> int:
        self.next_op += 1
        return self.next_op - 1

    def fail(self, i: int, what: str):
        self.failures.append(f"op {i}: {what}")
        self.failed_ops.add(i)

    def attempt(self, i: int):
        """Run op i untraced and check its output; returns (ms, output)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            raw = self.wl.op(i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return 1e3 * (time.perf_counter() - t), None
        ms = 1e3 * (time.perf_counter() - t)
        out = self.wl.output(raw)
        for msg in self.wl.check(out):
            self.fail(i, msg)
        return ms, out

    def loop(self, seconds: float, step) -> float:
        """Call step(i) on fresh op indices, at least once, while another
        step of average length still fits in the time budget."""
        t0 = time.perf_counter()
        done = 0
        while True:
            step(self.take_op())
            done += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (done + 1) / done > seconds:
                return elapsed

    def untraced(self, seconds: float) -> dict:
        times: list[float] = []
        loop_s = self.loop(seconds, lambda i: times.append(self.attempt(i)[0]))
        return {"op_ms": times, "loop_s": loop_s}

    def traced(self, seconds: float) -> dict:
        """Each op both untraced and traced, in turns which goes first, so
        that the second run's warm caches favour neither; op_ms and
        traced_op_ms pair up by index."""
        tracer = self.ops.Tracer()
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []

        def step(i):
            if i % 2 == 0:
                ms, out = self.attempt(i)
            try:
                t_out, t_ms, t_layers = self.wl.traced_op(i, tracer)
            except Exception as exc:  # counted like an untraced failure
                traceback.print_exc(file=sys.stderr)
                self.fail(i, f"traced op: {type(exc).__name__}: {exc}")
                t_layers = None
            if i % 2 == 1:
                ms, out = self.attempt(i)
            if t_layers is None:
                return
            plain.append(ms)
            traced.append(t_ms)
            layers.append(t_layers)
            if out is not None and self.wl.fingerprint(out) != self.wl.fingerprint(t_out):
                self.fail(i, "traced output differs from untraced output")

        self.loop(seconds, step)
        return {"op_ms": plain, "traced_op_ms": traced, "layers": layers,
                "spans": tracer.spans}


def end_to_end(run: Run, report: dict) -> dict:
    times = report["op_ms"]
    return {
        "op_ms_p90": percentile(times, 90),
        "ops_per_s": len(times) / report["loop_s"],
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(report: dict) -> dict:
    layers = report["layers"]
    metrics = {name: statistics.median(row[name] for row in layers)
               for name in PER_LAYER if name != "trace.overhead_ms"}
    # paired by op, so the op's input and the host's speed at that moment cancel
    metrics["trace.overhead_ms"] = statistics.median(
        t - u for t, u in zip(report["traced_op_ms"], report["op_ms"]))
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> str:
    """OpenBLAS's own thread count when it can be asked, else the env settings."""
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        maps = []
    for lib in sorted({p for p in maps if "openblas" in Path(p).name.lower()}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} (OpenBLAS; env {env or 'unset'})"
    return f"unknown (env {env or 'unset'})"


def environment(seed: int, ops_count: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "ops": ops_count,
        "workers": 1,
        "setup_repeats": SETUP_REPEATS,
    }


def run_one(args) -> int:
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR, prefix="work-") as work:
        run = Run(args.workload, args.seed, Path(work))
        report = run.traced(args.seconds) if args.trace else run.untraced(args.seconds)
    if args.trace:
        metrics, units = per_layer(report), PER_LAYER
    else:
        metrics, units = end_to_end(run, report), END_TO_END
    attempted = run.attempted
    failed = len(run.failed_ops)
    env = environment(args.seed, attempted)
    detail = {key: report[key] for key in ("op_ms", "traced_op_ms", "spans") if key in report}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(
        {"metrics": metrics, "failures": run.failures, "env": env,
         "setup_s": run.setup_s, **detail}))

    w = args.workload
    for name, unit in units.items():
        print(f"{w:<13} {name:<41} {metrics[name]:>14.6g} {unit}")
    timed = report["op_ms"]
    if args.trace:
        print_shares(w, metrics)
    else:
        beyond = sum(t > metrics["op_ms_p90"] for t in timed)
        print(f"{w:<13} {'timed ops':<41} {len(timed):>14d} count ({beyond} beyond p90)")
        print(f"{w:<13} {'op_ms_p50':<41} {statistics.median(timed):>14.6g} ms")
    print(f"{w:<13} {'op_fail_ratio':<41} {failed / attempted:>14.6g} ratio")
    for msg in run.failures[:10]:
        print(f"  check failed: {msg}")
    print(f"{w:<13} output checks: {'passed' if not failed else 'FAILED'} "
          f"({attempted - failed}/{attempted} ops, warm-ups included)")
    print("env: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def print_shares(workload: str, metrics: dict):
    spent = {layer: sum(metrics[m] for m in names) for layer, names in LAYER_SPANS.items()}
    total = sum(spent.values())
    shares = ", ".join(f"{layer} {100 * ms / total:.0f}%"
                       for layer, ms in sorted(spent.items(), key=lambda kv: -kv[1]))
    print(f"{workload:<13} share of the traced op by layer: {shares}")


def run_all(args) -> int:
    """Every workload, one at a time, untraced and then traced, each run in
    a fresh process."""
    verdicts = []
    for workload in WORKLOADS:
        for trace in ([args.trace] if args.trace is not None else [0, 1]):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            sys.stderr.write(proc.stderr)
            verdicts.append(proc.returncode == 0 and json.loads(lines[-1])["correct"])
    print("all output checks passed" if all(verdicts) else "some runs FAILED")
    return 0 if all(verdicts) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="length of the timed loop; 36 as in BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
