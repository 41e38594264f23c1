"""linrel benchmark: one workload, one closed-loop client, one thread.

    python3 perfbench/run.py --workload qrel-serve --seed 1 --seconds 30 --trace 0

Run from the root of a linrel checkout; the library is imported from its
`src`.  With `--trace 0` the run measures the end-to-end metrics.  With
`--trace 1` it serves the first deck untraced, then traced, and reports the
per-layer metrics with the ratio of the two throughputs.  Every reply is
checked (see `workloads.py`).  Human-readable lines come first; the last
line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from calibrate import REFERENCE_MS
from coldstart import ROOT, SETUP_ENTRIES, SRC, cold_setup, fill_tables, use_checkout_src
from loop import PREFIX_REQUESTS, run_loop
from tracer import Tracer, layer_metrics, linrel_specs

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH, "out")
# Cold set-ups measured per run, each in a fresh interpreter; the first also
# replays the run's first replies, the second replays them for another seed.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SETUP_ENTRIES) + ["all"],
                   help="one workload, or all three, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_probes(workload: str, seed: int, replay: int) -> list[dict]:
    probes = []
    for i in range(SETUP_PROBES):
        probe_seed = seed + 1 if i == 1 else seed
        count = replay if i < 2 else 0
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "probe.py"), workload,
             str(probe_seed), str(count)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def print_table(rows) -> None:
    for name, (value, unit), note in rows:
        print(f"  {name:28s} {value:>14.6g} {unit:8s} {note}")


def shares_lines(res) -> list[str]:
    total = sum(res.scaled)
    kinds = ", ".join(f"{k} {v / total:.3f}"
                      for k, v in sorted(res.kind_time.items(), key=lambda kv: -kv[1]))
    backends = ", ".join(f"{k} {v / res.attempted:.3f}"
                         for k, v in sorted(res.backend_count.items()))
    return [
        f"share of time by op kind: {kinds}",
        f"share of requests by carrier backend: {backends}",
        f"share of requests repeating an earlier request exactly: "
        f"{res.repeats / res.attempted:.4f}",
        f"share of requests whose reply repeats an earlier reply: "
        f"{res.response_repeats / res.attempted:.4f}",
    ]


def end_to_end(args, work) -> dict:
    res = run_loop(work, args.seed, args.seconds)
    prefix = min(PREFIX_REQUESTS, res.attempted)
    probes = run_probes(args.workload, args.seed, prefix)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    same = probes[0]["digest"] == res.prefix_digest
    other_differs = probes[1]["digest"] != res.prefix_digest
    digest_ok = same and (other_differs or args.workload != "law-sweep")

    lat = res.full_decks()
    if len(lat) < 2:
        lat = res.scaled
        print("warning: no deck was served whole; statistics cover every request")
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    beyond = sum(v > p90 for v in lat)
    raw = statistics.quantiles(res.latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (res.attempted / sum(res.scaled), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    error_ratio = res.failed / res.attempted
    kernel = res.kernel_ms
    print(f"timings scaled to a {REFERENCE_MS} ms reference kernel; measured "
          f"{len(kernel)} times, median {statistics.median(kernel):.4f} ms, "
          f"range {min(kernel):.4f}-{max(kernel):.4f} ms")
    print_table([
        ("setup_s", metrics["setup_s"],
         f"median of {len(probes)} cold set-ups; raw: "
         + ", ".join(f"{p['raw_setup_s']:.4f}" for p in probes)),
        ("throughput_rps", metrics["throughput_rps"],
         f"{res.attempted} requests; raw {res.attempted / res.service_s:.4f} "
         f"in {res.service_s:.3f} s of service"),
        ("latency_p50_ms", metrics["latency_p50_ms"],
         f"n={len(lat)} in whole decks; raw over all: {raw[4] * 1e3:.4f}"),
        ("latency_p90_ms", metrics["latency_p90_ms"],
         f"n={len(lat)}, {beyond} beyond p90; raw over all: {raw[8] * 1e3:.4f}"),
        ("error_ratio", (error_ratio, "ratio"),
         f"{res.failed} failed of {res.attempted}"
         + (f": {dict(res.failures)}" if res.failed else "")),
        ("peak_rss_mb", metrics["peak_rss_mb"], "ru_maxrss of this process"),
    ])
    for line in shares_lines(res):
        print(line)
    print(f"digest of all {res.attempted} replies: {res.digest}")
    print(f"digest of first {prefix} replies: "
          f"{res.prefix_digest}; fresh process, same seed: "
          f"{'match' if same else 'MISMATCH'}; other seed: "
          f"{'differs' if other_differs else 'same'}")
    if beyond < 10:
        print("warning: fewer than ten samples beyond p90")
    return {
        "correct": res.failed == 0 and digest_ok,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(args, work) -> dict:
    from linrel import verify

    # The first deck is served untraced, then traced: the per-layer counts
    # repeat exactly for a seed, and the overhead ratio compares like with
    # like.  Each phase is capped at --seconds of service.
    deck = len(work.deck(args.seed, 0))
    base = run_loop(work, args.seed, args.seconds, limit=deck)
    tr = Tracer()
    tr.install(linrel_specs())
    try:
        # one traced cold catalog build stands for the set-up layers
        fill_tables(verify.build_catalog(10), args.workload)
        traced = run_loop(work, args.seed, args.seconds, tracer=tr, limit=deck)
    finally:
        tr.uninstall()
    # traced over untraced throughput, on the requests both phases served
    m = min(base.attempted, traced.attempted)
    ratio = sum(base.scaled[:m]) / sum(traced.scaled[:m])
    metrics = layer_metrics(tr, ratio, traced.attempted)
    print_table([(k, v, "") for k, v in metrics.items()])
    print(f"untraced: {base.attempted} requests in {base.service_s:.3f} s; "
          f"traced: {traced.attempted} requests in {traced.service_s:.3f} s")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tr.write(path, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {tr.spans_total} recorded, {len(tr.kept)} written to "
          f"{os.path.relpath(path, ROOT)}")
    failed = base.failed + traced.failed
    return {
        "correct": failed == 0,
        "attempted": base.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Run each workload in a fresh process, one after another."""
    status = 0
    for name in sorted(SETUP_ENTRIES):
        sys.stdout.flush()
        proc = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv) -> int:
    args = parse_args(argv)
    if not use_checkout_src():
        print(f"run.py: no linrel sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    load = os.getloadavg()
    print(f"linrel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"loadavg_at_start={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")
    inproc_setup = cold_setup(args.workload)
    import linrel
    from linrel import verify
    from workloads import WORKLOADS

    if not os.path.abspath(linrel.__file__).startswith(SRC + os.sep):
        print(f"run.py: linrel imported from {linrel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"in-process set-up: {inproc_setup:.4f} s")
    work = WORKLOADS[args.workload](verify.catalog(10))
    if args.trace:
        result = per_layer(args, work)
    else:
        result = end_to_end(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
