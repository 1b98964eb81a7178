"""The measured process: one process, one thread, one closed-loop client.

Reads a job as JSON on stdin, imports klasika from the job's source tree and
drives ``klasika.cli.run()`` in-process.  The next request is sent only after
the previous one has returned and its JSON is rendered.  The loop makes whole
passes over the request list until the time is up, so every run sees the same
mix.  Between requests, at most every 50 ms, it times a fixed reference kernel
so the parent can divide out how fast the machine ran around each request.
Prints one JSON object on stdout.

With ``"probe": true`` it runs one argv once instead (a cap-probe row; the
parent enforces the wall-clock limit).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction


def reference_kernel():
    """Fixed stdlib work like klasika's inner loops, independent of klasika:
    Fraction elimination, a coefficient-list product and JSON rendering."""
    n = 7
    a = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        pivot = a[k][k] or Fraction(1)
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    coeffs = [Fraction(i - 3, 2) for i in range(8)]
    prod = [Fraction(0)] * 15
    for i, x in enumerate(coeffs):
        for j, y in enumerate(coeffs):
            prod[i + j] += x * y
    return json.dumps([str(c) for c in prod + a[n - 1]])


REFERENCE_EVERY_S = 0.05


def _run_pass(cli, requests, starts, latencies, cpu_times, outputs, nondeterministic, reference, tracer=None):
    """Time each request once; `starts` and `reference` hold perf_counter
    readings, so the parent can match each request to the reference samples
    taken around it."""
    clock, cpu_clock = time.perf_counter, time.process_time
    last = float("-inf")  # sample the reference kernel at the start of every pass
    for i, argv in enumerate(requests):
        if clock() - last >= REFERENCE_EVERY_S:
            start = clock()
            reference_kernel()
            last = clock()
            reference.append([start, last - start])
        if tracer is not None:
            tracer.begin_request(i)
        cpu_start = cpu_clock()
        start = clock()
        text = cli.run(argv).to_json()
        latencies[i].append(clock() - start)
        cpu_times[i].append(cpu_clock() - cpu_start)
        starts[i].append(start)
        if outputs[i] is None:
            outputs[i] = text
        elif text != outputs[i]:
            nondeterministic.add(i)


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, job["src"])
    import klasika
    from klasika import cli

    if job.get("probe"):
        start = time.perf_counter()
        result = cli.run(job["argv"])
        elapsed = time.perf_counter() - start
        print(json.dumps({"latency_s": elapsed, "status": result.status,
                          "kind": result.payload.get("kind"), "exit_code": result.exit_code}))
        return

    requests = job["requests"]
    for argv in job["warmup"]:
        cli.run(argv).to_json()

    n = len(requests)
    starts = [[] for _ in range(n)]
    latencies = [[] for _ in range(n)]
    cpu_times = [[] for _ in range(n)]
    reference = []
    outputs = [None] * n
    nondeterministic = set()
    report = {}
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer(klasika)
        untraced_wall = traced_wall = 0.0
        pairs = 0
        deadline = time.perf_counter() + job["seconds"]
        while True:
            start = time.perf_counter()
            _run_pass(cli, requests, starts, latencies, cpu_times, outputs, nondeterministic, reference)
            untraced_wall += time.perf_counter() - start
            tracer.install()
            try:
                start = time.perf_counter()
                unused = [[[] for _ in range(n)] for _ in range(3)]
                _run_pass(cli, requests, *unused, outputs, nondeterministic, [], tracer)
                traced_wall += time.perf_counter() - start
            finally:
                tracer.uninstall()
            pairs += 1
            if time.perf_counter() >= deadline:
                break
        report["layers"] = tracer.metrics(pairs)
        report["layers"]["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        report["traced_passes"] = pairs
    else:
        passes = 0
        cpu0, wall0 = time.process_time(), time.perf_counter()
        deadline = wall0 + job["seconds"]
        while True:
            _run_pass(cli, requests, starts, latencies, cpu_times, outputs, nondeterministic, reference)
            passes += 1
            if time.perf_counter() >= deadline:
                break
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = time.process_time() - cpu0
        report["passes"] = passes

    report["starts"] = starts
    report["latencies"] = latencies
    report["cpu_times"] = cpu_times
    report["reference_s"] = reference
    report["outputs"] = outputs
    report["nondeterministic"] = sorted(nondeterministic)
    report["once_outputs"] = [cli.run(argv).to_json() for argv in job["once"]]
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
