"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serial-coarse|dist-local|serve-pool \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics named in
``BENCHMARK.json`` (tracing off); with ``--trace 1`` it wraps every layer,
prints the per-layer metrics and writes a Chrome trace-event file to
``.perfbench/trace-<workload>-seed<N>.json``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``perfbench-report {...}``) carries
the host facts and everything else the run observed.

Exit status: 0 on success, 1 when an output check failed (the message
names the workload and operation), 2 when the program cannot be run
(for example ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
#: set-ups per run: this process plus fresh subprocesses (cold caches)
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used for "
                             "the set-up samples)")
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> dict:
    """Cold set-up measured in a fresh interpreter: ``{"setup_s",
    "setup_wall_s"}`` (steal-adjusted and raw seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import host, stats, workloads
    from perfbench.layers import FFT_METRICS, LayerProbe, SELF_TIME_METRICS
    from perfbench.tracing import chrome_trace

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    if args.setup_only:
        w = make(args.seed, WORKDIR)
        try:
            interval = w.setup()
            print(json.dumps({"setup_s": interval.adjusted,
                              "setup_wall_s": interval.wall}))
        finally:
            w.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    w = make(args.seed, WORKDIR)
    probe = LayerProbe() if args.trace else None
    try:
        interval = w.setup()
        setups.append({"setup_s": interval.adjusted, "setup_wall_s": interval.wall})
        t0 = time.perf_counter()
        m = w.measure(args.seconds, probe)
        run_s = time.perf_counter() - t0
        error = w.error()
        if error > workloads.ERROR_SANITY_MAX:
            raise workloads.CheckFailure(
                f"{w.name}: rel_l2_error {error:.4f} exceeds "
                f"{workloads.ERROR_SANITY_MAX} (not an approximation)")
        e2e = workloads.end_to_end(
            w, m, stats.median([s["setup_s"] for s in setups]), error)
        layers = workloads.per_layer(w, m, probe) if probe else {}
    except workloads.CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1
    finally:
        w.close()

    facts = host.host_facts(ROOT, args.seed, w.busy_threads)
    section = "per_layer" if args.trace else "end_to_end"
    values = layers if args.trace else e2e["metrics"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in spec[section]}

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (measured {run_s:.1f}s)")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "argv"))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:<14.6g} {metric['unit']}")
    for name, value in e2e["details"].items():
        print(f"  {name:32s} {value!s:<14} {workloads.DETAIL_UNITS[name]}")
    if args.trace:
        accounted = sum(layers[k] for k in SELF_TIME_METRICS) + layers["trace.unattributed_s"]
        print(f"  self times + unattributed = {accounted:.6f} s/op of "
              f"trace.wall_s {layers['trace.wall_s']:.6f}")
        grouped = {k: layers[k] for k in SELF_TIME_METRICS if k not in FFT_METRICS}
        grouped["fft.* (all stages)"] = sum(layers[k] for k in FFT_METRICS)
        top = max(grouped, key=grouped.get)
        print(f"  largest layer: {top} {grouped[top]:.6f} s/op")
        WORKDIR.mkdir(exist_ok=True)
        out = WORKDIR / f"trace-{w.name}-seed{args.seed}.json"
        origin = min((s.start for s in probe.tracer.spans), default=0.0)
        out.write_text(json.dumps(chrome_trace(probe.tracer.spans, origin, facts)))
        print(f"  chrome trace: {out.relative_to(ROOT)} "
              f"({len(probe.tracer.spans)} spans)")
    for line in m.errors:
        print(f"  failed: {line}")
    report = {"workload": w.name, "host": facts, "setup_samples": setups,
              "details": e2e["details"], "latencies_s": m.latencies, section: values}
    print("perfbench-report " + json.dumps(report))
    emit(True, m.attempted, m.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
