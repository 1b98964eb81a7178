"""Benchmark klasika end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forms-small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics, ``trace.overhead_frac`` and the cap probe.  Above the last
line it prints a human summary and a JSON report (environment, input census,
tail percentile and sample counts, failures, self-test, cap probe).  The last
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The requests run in a worker process (``worker.py``) so its peak RSS is the
program's own; generation and output checks (``oracles.py``) happen here,
outside the timed loop.  Each time sample is divided by the machine's
slowdown around it, measured on a fixed reference kernel (see
``local_slowdowns``), and time metrics take each request's median over its
samples.  Workloads and the reason for each are in
``workloads.py`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction

from oracles import check, corrupt, exact_digest
from workloads import GENERATORS, WHY, census, expand, poly_text

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
SETUP_SAMPLES = 15
WORKER_LIMIT_S = 150
PROBE_LIMIT_S = 25
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
# Time metrics are scaled to the speed at which the worker's reference kernel
# takes this long: its time on the 2-vCPU x86_64 VM (Python 3.11.7) the
# benchmark was written on, in the VM's quiet phases.
REFERENCE_KERNEL_S = 0.8e-3
# A sample's slowdown is the median reference time from this long before the
# request started until this long after it ended.
SLOWDOWN_WINDOW_S = 0.25

# Times the import, then the reference kernel in the same interpreter, and
# prints the import time and the kernel's median time.
_IMPORT_SNIPPET = f"""
import sys, time
sys.path.insert(0, 'src')
t = time.perf_counter()
import klasika.cli
import_s = time.perf_counter() - t
sys.path.insert(0, {HERE!r})
import statistics
from worker import reference_kernel
kernel_s = []
for _ in range(7):
    t = time.perf_counter()
    reference_kernel()
    kernel_s.append(time.perf_counter() - t)
print(import_s, statistics.median(kernel_s))
"""

# Degree-64 inputs at the CLI cap and the two known rational-root cliffs.
_P64 = ",".join(str(c) for c in [(-1) ** (k * k // 3) * (1 + (7 * k + 3) % 9) for k in range(64)] + [3])
# 24 distinct rational roots of multiplicity 2 or 4
_Q64 = poly_text(expand(1, [Fraction(k % 8 + 1, 1 + k // 32) * (1 if k % 16 < 8 else -1) for k in range(64)]))
_N = 10000019 * 10000079
CAP_PROBE = {
    "highdeg-disc": [
        ("disc_deg64", ["--json", "disc", _P64]),
        ("repeated_deg64", ["--json", "repeated", _P64]),
    ],
    "ratfun-partfrac": [
        ("partfrac_deg64", ["--json", "partfrac", "1", "/", _Q64]),
        ("integrate_divisor_cliff", ["--json", "integrate", "1", "/", "963761198400,1,1,963761198400"]),
        ("integrate_wrongly_refused", ["--json", "integrate", "1", "/", f"{_N},{_N},1,1"]),
    ],
    "forms-small": [],  # its inputs are far from every cap
}


def _python(*args):
    return [sys.executable, "-I", "-X", f"pycache_prefix={BUILD_DIR}/pycache", *args]


def measure_setup():
    """Median time to import klasika.cli in a fresh interpreter, warm bytecode.

    Each import time is divided by the slowdown the reference kernel shows
    in the same interpreter just after it, as the request times are.
    Returns the median and the unscaled samples.
    """
    samples, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(_python("-c", _IMPORT_SNIPPET), capture_output=True, text=True, check=True, timeout=60)
        if i:  # the first import writes the bytecode cache
            import_s, reference_s = map(float, out.stdout.split())
            samples.append(import_s)
            scaled.append(import_s / (reference_s / REFERENCE_KERNEL_S))
    return statistics.median(scaled), samples


def run_worker(job, limit):
    proc = subprocess.run(_python(os.path.join(HERE, "worker.py")), input=json.dumps(job),
                          capture_output=True, text=True, timeout=limit)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def cap_probe(workload):
    rows = []
    for name, argv in CAP_PROBE[workload]:
        try:
            out = run_worker({"probe": True, "src": "src", "argv": argv}, PROBE_LIMIT_S)
            rows.append({"row": name, "outcome": out["status"] if out["kind"] is None else f"{out['status']}:{out['kind']}",
                         "latency_s": out["latency_s"]})
        except subprocess.TimeoutExpired:
            rows.append({"row": name, "outcome": "timeout", "latency_s": None, "limit_s": PROBE_LIMIT_S})
    return rows


def local_slowdowns(reference, starts, latencies):
    """How much slower than the reference speed the machine ran around each sample.

    `reference` holds [start, duration] of the reference kernel's runs in
    time order.  A sample's slowdown is the median duration of the runs that
    started within SLOWDOWN_WINDOW_S of the request, or of the nearest run
    when none did, divided by REFERENCE_KERNEL_S.  Slow phases of a shared
    machine last from a fraction of a second to a whole run, so the local
    figure follows them where one figure for the run cannot.
    """
    times = [t for t, _ in reference]
    durations = [d for _, d in reference]
    factors = []
    for request_starts, request_latencies in zip(starts, latencies):
        row = []
        for start, latency in zip(request_starts, request_latencies):
            lo = bisect.bisect_left(times, start - SLOWDOWN_WINDOW_S)
            hi = bisect.bisect_right(times, start + latency + SLOWDOWN_WINDOW_S)
            if lo == hi:
                lo = min(max(bisect.bisect_left(times, start) - 1, 0), len(times) - 1)
                hi = lo + 1
            row.append(statistics.median(durations[lo:hi]) / REFERENCE_KERNEL_S)
        factors.append(row)
    return factors


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n - math.ceil(n * p / 100) >= 10:
            best = p
    rank = max(math.ceil(n * best / 100), 1)
    return best, ordered[rank - 1], n - rank


def git_commit(root):
    """HEAD of the checkout, read from .git directly; unknown outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(os.getcwd()),
    }


def _warmup(requests):
    """The shortest request of each command: warms the code paths cheaply."""
    shortest = {}
    for r in requests:
        if r["cmd"] not in shortest or len(str(r["argv"])) < len(str(shortest[r["cmd"]]["argv"])):
            shortest[r["cmd"]] = r
    return [r["argv"] for r in shortest.values()]


def pass_order(requests):
    """Request indices in the order of one pass: every request, then again
    those with repeat >= 2, and so on, so repeats are half a pass apart."""
    rounds = max(r["repeat"] for r in requests)
    return [i for k in range(rounds) for i, r in enumerate(requests) if r["repeat"] > k]


def merge(order, n, result):
    """Fold the worker's per-entry results back onto the requests."""
    starts = [[] for _ in range(n)]
    latencies = [[] for _ in range(n)]
    cpu_times = [[] for _ in range(n)]
    outputs = [None] * n
    nondeterministic = {order[e] for e in result["nondeterministic"]}
    for e, i in enumerate(order):
        starts[i] += result["starts"][e]
        latencies[i] += result["latencies"][e]
        cpu_times[i] += result["cpu_times"][e]
        if outputs[i] is None:
            outputs[i] = result["outputs"][e]
        elif result["outputs"][e] != outputs[i]:
            nondeterministic.add(i)
    return starts, latencies, cpu_times, outputs, nondeterministic


def evaluate(requests, outputs, nondeterministic):
    """Failure reason per request index (None when correct)."""
    reasons = [check(r, text) for r, text in zip(requests, outputs)]
    for i in nondeterministic:
        reasons[i] = reasons[i] or "output differs between passes"
    return reasons


def self_test(requests, outputs, reasons):
    """Corrupt one correct answer per command: {command: (request index, caught)}."""
    corrupted = {}
    for i, r in enumerate(requests):
        if r["cmd"] not in corrupted and reasons[i] is None:
            corrupted[r["cmd"]] = (i, check(r, corrupt(r["cmd"], outputs[i])) is not None)
    return corrupted


_LAYER_UNITS = {"self_s": "s", "overhead_frac": "ratio", "redundant_frac": "ratio",
                "hit_ratio": "ratio", "entry_bits_max": "bits", "order_max": "order"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "klasika", "cli.py")):
        print("error: run from the root of a klasika checkout (src/klasika/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[args.workload]

    requests = GENERATORS[args.workload](args.seed)
    report = {"workload": args.workload, "why": WHY[args.workload], "environment": environment(args.seed),
              "census": census(requests), "seconds": args.seconds, "trace": bool(args.trace)}
    if not args.trace:
        setup_s, setup_samples = measure_setup()
        report["setup_samples_s"] = setup_samples

    order = pass_order(requests)
    job = {"src": "src", "requests": [requests[i]["argv"] for i in order], "warmup": _warmup(requests),
           "seconds": args.seconds, "trace": bool(args.trace), "once": [g[0] for g in golden]}
    result = run_worker(job, WORKER_LIMIT_S)
    starts, latencies, cpu_times, outputs, nondeterministic = merge(order, len(requests), result)

    reasons = evaluate(requests, outputs, nondeterministic)
    runs = [len(lat) * (2 if args.trace else 1) for lat in latencies]
    attempted = sum(runs) + len(golden)
    failed_idx = [i for i, why in enumerate(reasons) if why is not None]
    golden_bad = [g[0] for g, text in zip(golden, result["once_outputs"]) if exact_digest(text) != g[1]]
    failed = sum(runs[i] for i in failed_idx) + len(golden_bad)
    corrupted = self_test(requests, outputs, reasons)
    corrupted_failed = failed + sum(runs[i] for i, caught in corrupted.values() if caught)
    report["failures"] = {
        "failed_frac": failed / attempted,
        "failed_requests": [{"argv": requests[i]["argv"][:3], "reason": reasons[i]} for i in failed_idx[:20]],
        "golden_checked": len(golden),
        "golden_mismatch": golden_bad[:20],
        "self_test": {"caught": {cmd: caught for cmd, (_, caught) in corrupted.items()},
                      "failed_frac_with_corruption": corrupted_failed / attempted},
    }
    correct = not failed and all(caught for _, caught in corrupted.values())

    if args.trace:
        metrics = {name: (value, _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count"))
                   for name, value in result["layers"].items()}
        report["traced_passes"] = result["traced_passes"]
        report["cap_probe"] = cap_probe(args.workload)
    else:
        # On a shared machine, slowdowns of up to 2x, CPU time included, come
        # and go within a run and can last for a whole run.  Each sample is
        # divided by the slowdown measured on a fixed reference kernel around
        # it, and each request's time is the median of its scaled samples.
        factors = local_slowdowns(result["reference_s"], starts, latencies)
        wall = [statistics.median(t / f for t, f in zip(lat, fs)) for lat, fs in zip(latencies, factors)]
        cpu = [statistics.median(t / f for t, f in zip(cts, fs)) for cts, fs in zip(cpu_times, factors)]
        p, tail_value, beyond = tail(wall)
        completed = sum(runs)
        metrics = {
            "ops_per_s": (len(requests) / sum(wall), "1/s"),
            "latency_p50_ms": (statistics.median(wall) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "cpu_ms_per_op": (statistics.fmean(cpu) * 1e3, "ms"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
        report["latency"] = {
            "tail_percentile": p, "samples_beyond_tail": beyond, "requests": len(requests),
            "passes": result["passes"], "samples": completed,
            "per_request_statistic": "median of its samples, each divided by the slowdown around it",
            "slowdown_quartiles": statistics.quantiles([f for fs in factors for f in fs], n=4),
            "reference_samples": len(result["reference_s"]),
            "unscaled": {"ops_per_s": completed / result["wall_s"],
                         "cpu_ms_per_op": result["cpu_s"] / completed * 1e3,
                         "latency_p50_ms": statistics.median(statistics.median(lat) for lat in latencies) * 1e3},
        }

    print(f"klasika benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {report['failures']['failed_frac']:14.6g} (of {attempted} attempted)")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
