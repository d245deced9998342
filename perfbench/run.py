"""equiloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  Each op runs in a closed loop from
one client, one op at a time, in whole passes.  S sets the work: a run
makes S divided by the workload's nominal pass time passes (rounded up),
which takes about S seconds on the machine the pass times were measured
on.  A fixed op list gives the parent and a change the same inputs and the
same sample count, so the percentiles compare.  Every result is checked
against a reference computed outside the timed region.  The last stdout
line is the JSON result; the lines before it record the environment, the
failures by name and the known defects.

The host this runs on shares its cores, and its speed drifts by half or
more within minutes.  So a fixed calibration, which runs no equiloc code,
is timed between every two ops and every two set-up processes (see
calibration.py), and each time is scaled by the calibration's reference
time over its mean time just before and just after.  The timings are so
at the reference speed; a change to the program moves them as it moves
wall time, while a change in the host's speed largely cancels out.  The
unscaled wall-clock figures are printed on the lines before the result.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed number
of passes with spans around the calls into each layer, writes the spans to
perfbench/out/ as JSON lines and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# hashlib, importlib.metadata, platform, resource and tempfile are imported
# where they are used, so the set-up child (--setup-only), whose run time is
# setup_s, loads little beyond equiloc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import LOOP, PROCESS  # noqa: E402


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_environment() -> str:
    if not (ROOT / "src" / "equiloc" / "__init__.py").is_file():
        fail(f"no equiloc sources under {ROOT / 'src'}; run from a checkout")
    threads = os.environ.get("EQUILOC_THREADS", "")
    if threads.strip():
        try:
            n = int(threads)
        except ValueError:
            fail(f"EQUILOC_THREADS={threads!r} is not an integer")
        if n > 1:
            fail(f"EQUILOC_THREADS={n}: the benchmark measures one thread")
    sys.path.insert(0, str(ROOT / "src"))
    return threads


def environment(seed: int, threads: str) -> dict:
    import hashlib
    import importlib.metadata
    import platform

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "sympy": version("sympy"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "EQUILOC_THREADS": threads or None}


@dataclass
class Record:
    op: str
    pass_index: int
    seconds: float
    error: str | None
    # the host's speed around the op, from the workload's calibration
    speed: float = 1.0

    @property
    def scaled(self) -> float:
        """The op's time at the reference speed."""
        return self.seconds * self.speed


def passes_for(workload, seconds: float) -> int:
    """Passes for `seconds` of work at the nominal pass time; at least two,
    and enough for the tail percentile to have ten samples beyond it."""
    per_pass = len(workload.pass_ops(0))
    return max(2, math.ceil(11 / per_pass),
               math.ceil(seconds / workload.pass_seconds))


def measure(workload, passes: int, tracer=None) -> list:
    """Closed loop over whole passes; only the op call itself is timed.  A
    pass's references are computed before it, so that the calibration runs
    right before and right after each op."""
    calibration = workload.calibration
    records: list[Record] = []
    gc.collect()
    for index in range(passes):
        ops = workload.pass_ops(index)
        refs = [workload.reference(op) for op in ops]
        before = calibration.run()
        for op, ref in zip(ops, refs):
            if tracer is not None:
                tracer.op = op.id
            start = time.perf_counter()
            try:
                result = workload.run(op)
                error = None
            except Exception as e:  # a failed op is reported, not fatal
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            after = calibration.run()
            speed = calibration.speed(before, after)
            before = after
            if error is None:
                error = workload.check(result, ref)
            records.append(Record(op.id, index, elapsed, error, speed))
    return records


def setup_seconds(workload, seed: int) -> list:
    """Seconds from starting a fresh process to the end of its set-up, at
    the reference speed, for at least three processes and more while they
    add up to under three seconds.  The child reports the moment its set-up
    ended on the system-wide monotonic clock, so its exit is not counted.
    The child times the calibration loop when it starts and right after
    its set-up, on the core it runs on, and the first loop's time is left
    out.  The speed comes from those two loops, or for a workload
    calibrated with the reference process (cli, whose set-up is imports)
    from that process run right before and right after each child.
    Returns (seconds, speed) pairs."""
    env = {k: v for k, v in os.environ.items() if k != "EQUILOC_THREADS"}
    by_process = workload.calibration is PROCESS
    samples = []
    before = PROCESS.run() if by_process else None
    while len(samples) < 3 or (sum(s for s, _ in samples) < 3.0
                               and len(samples) < 9):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, env=env, check=True, timeout=120, capture_output=True,
            text=True)
        end, first, last = map(float, proc.stdout.split()[-3:])
        if by_process:
            after = PROCESS.run()
            speed = PROCESS.speed(before, after)
            before = after
        else:
            speed = LOOP.speed(first, last)
        samples.append((end - start - first, speed))
    return samples


def end_to_end(workload, records, setup_samples, rss_kb) -> tuple:
    """A failed op is charged the workload's latency limit plus its own
    time.  ops_per_s is the median over passes of correct ops per charged
    second; every pass holds the same mix, so each is a fair sample.  All
    times are at the reference speed; setup_samples are (seconds, speed)."""
    limit = workload.latency_limit_s
    charge = [r.scaled + (limit if r.error else 0.0) for r in records]
    passes: dict = {}
    for r, c in zip(records, charge):
        ok, busy = passes.get(r.pass_index, (0, 0.0))
        passes[r.pass_index] = (ok + (r.error is None), busy + c)
    charged = sorted(charge)
    n = len(charged)
    tail = charged[n - 11]
    metrics = {
        "ops_per_s": (statistics.median(ok / busy for ok, busy
                                        in passes.values()), "1/s"),
        "latency_p50_ms": (statistics.median(charged) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(s * v for s, v in setup_samples),
                    "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    speeds = [r.speed for r in records]
    note = (f"latency_tail_ms is p{100 * (n - 10) / n:.1f} of {n} samples; "
            f"a failed op is charged {limit} s plus its own time\n"
            f"times are at the reference speed; host speed over the run: "
            f"median {statistics.median(speeds):.3f}, range "
            f"{min(speeds):.3f}-{max(speeds):.3f}\n"
            f"wall clock: latency p50 "
            f"{statistics.median(r.seconds for r in records) * 1e3:.1f} ms, "
            f"tail {sorted(r.seconds for r in records)[n - 11] * 1e3:.1f} ms, "
            f"setup {statistics.median(s for s, _ in setup_samples):.3f} s")
    return metrics, note


def layer_metrics(summary, ops, imports, overhead_s, n_spans,
                  cancellations) -> dict:
    def get(name, key):
        value = summary.get(name, {}).get(key, 0)
        return value if key.endswith("_s") else int(value)

    metrics = {}
    for name in ("zrational.to_laurent_polynomial", "localization.chi_tilde",
                 "localization.character", "quantize.exceptional_term",
                 "zrational.residue", "model.parse",
                 "localization.PreparedInner.init",
                 "localization.PreparedInner.evaluate",
                 "witten.complex_quad", "witten.dist_pair"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("quantize.residue_term", "quantize.regular_term",
                 "quantize.main_formula_report",
                 "localization.PreparedInner.laurent_sum",
                 "localization.component_u_laurent",
                 "localization.equivariant_todd_at_F",
                 "witten.witten_pair", "witten.expansion_rhs"):
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    metrics["zrational.den_degree"] = (
        get("zrational.to_laurent_polynomial", "den_degree"), "count")
    metrics["zrational.quotient_len"] = (
        get("zrational.to_laurent_polynomial", "quotient_len"), "count")
    metrics["localization.characters_per_op"] = (
        get("localization.character", "calls") / ops, "1/op")
    metrics["witten.cancellation_errors"] = (cancellations, "count")
    metrics["cli.import_s"] = (imports["equiloc_s"], "s")
    metrics["cli.import.scipy_s"] = (imports["scipy_s"], "s")
    metrics["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.spans"] = (n_spans, "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def run_traced(workload, out_dir: Path):
    """Fixed passes with spans; returns (records, per-layer metrics)."""
    import tempfile

    from tracer import Tracer, parse_importtime, summarize, write_spans
    baseline = measure(workload, 1)
    tracer = Tracer()
    child_dir = None
    if workload.name == "cli":
        child_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=out_dir))
        workload.trace_dir = child_dir
    else:
        tracer.install()
    try:
        records = measure(workload, workload.trace_passes, tracer=tracer)
        tracer.op = "probe"
        probes = list(workload.probe())
    finally:
        tracer.uninstall()
    imports = {"equiloc_s": 0.0, "scipy_s": 0.0}
    spans = tracer.spans
    if child_dir is not None:
        spans = []
        for path in sorted(child_dir.iterdir(), key=lambda p: int(p.stem)):
            with open(path, encoding="utf-8") as fh:
                offset = len(spans)
                spans += [(n, s, e, p + offset if p >= 0 else -1, op, x)
                          for n, s, e, p, op, x in json.load(fh)]
            path.unlink()
        child_dir.rmdir()
        imports = {k: sum(parse_importtime(r)[k]
                          for r in workload.import_logs)
                   for k in imports}
    trace_file = out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    write_spans(trace_file, spans)
    summary = summarize(spans, skip_op="probe")
    cancellations = int(summarize(spans)["witten.witten_pair"].get(
        "errors.CancellationError", 0))
    first_pass = len(baseline)
    overhead = (sum(r.seconds for r in records[:first_pass])
                - sum(r.seconds for r in baseline))
    metrics = layer_metrics(summary, len(records), imports, overhead,
                            len(spans), cancellations)
    return records, probes, summary, metrics, trace_file


def dominant_report(workload, summary, metrics, records) -> str:
    """Whether the trace shows the workload's stated dominant layers: their
    self time (cli: import time) is at least half the op time, and each
    layer stated to be minor takes at most a tenth."""
    op_time = sum(r.seconds for r in records)

    def share(name):
        if name in metrics:
            return metrics[name][0] / op_time
        return summary.get(name, {}).get("self_s", 0.0) / op_time

    named = sum(share(n) for n in workload.dominant)
    big = [f"{n} {share(n):.0%}" for n in workload.minor if share(n) > 0.1]
    verdict = "confirmed" if named >= 0.5 and not big else "CONTRADICTED"
    top = sorted(((v["self_s"], k) for k, v in summary.items()),
                 reverse=True)[:6]
    ranking = ", ".join(f"{k} {s / op_time:.0%}" for s, k in top)
    minor = (f"; stated minor but above 10%: {', '.join(big)}" if big else "")
    return (f"dominant layers {'+'.join(workload.dominant)}: {named:.0%} of "
            f"op time, {verdict}{minor}; top self time: {ranking}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, then exit (times set-up)")
    args = ap.parse_args(argv)
    if args.setup_only:
        first = LOOP.run()
    threads = check_environment()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    workload.setup()
    if args.setup_only:
        end = time.monotonic()
        print(end, first, LOOP.run())
        return 0
    print("env " + json.dumps(environment(args.seed, threads),
                              sort_keys=True))

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        records, probes, summary, metrics, trace_file = run_traced(
            workload, out_dir)
        missing = [s for s in workload.required_spans
                   if summary.get(s, {}).get("calls", 0) == 0]
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        print(dominant_report(workload, summary, metrics, records))
        for label, status, _ in probes:
            print(f"known defect {label}: {status}")
        if missing:
            fail(f"spans never fired on {workload.name}: {missing}", 3)
    else:
        import resource
        records = measure(workload, passes_for(workload, args.seconds))
        if workload.name == "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, note = end_to_end(workload, records,
                                   setup_seconds(workload, args.seed),
                                   rss_kb)
        probes = []
        print(note)
        for label in workload.known_defects():
            print(f"known defect left out of the timed ops: {label} "
                  "(probed by --trace 1)")

    failed = [r for r in records if r.error]
    print(f"{workload.name}: {len(records)} ops, {len(failed)} failed")
    for r in failed:
        print(f"FAILED {r.op}: {r.error}")
    correct = not failed and all(ok for _, _, ok in probes)
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
