"""epiroad benchmark: campaign throughput end to end, per-layer self time when traced.

Usage:
    python3 benchmarks/run.py --workload {neutrality,walks,evolve,build} --seed N
                              --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; epiroad is imported from its ``src``. A run
repeats rounds for about S seconds. Each round is one fresh process
(``worker.py``): interpreter start, ``import epiroad``, the workload's specs
written from the seed, ``gen`` (the set-up), then the timed phase through
the public CLI with ``--jobs 1``, then output checks. Rounds of one run do
identical work, so their outputs must hash the same.

``--trace 0`` prints the end-to-end metrics, medians over rounds: ref_cpu_s
(CPU time of the timed phase), units_per_ref_cpu_s (workload units per
second of it), setup_s (CPU time from process start to the timed phase) and
peak_rss_mb. Those times are CPU seconds rescaled to a fixed speed of the
host by ``speed.SpeedProbe``: on a shared virtual machine wall clock swings
with hypervisor steal, and even CPU time moves by up to 2 times with the
load on the physical core. Raw CPU time and wall clock are printed and
recorded beside them. ``--trace 1`` alternates traced and untraced rounds
and prints the per-layer metrics: exact counts (they must repeat across
traced rounds), median self times in raw CPU seconds, and the tracing
overhead (traced minus untraced raw cpu_s).
The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; a fuller record goes to .bench_out/results/. ``--tiny`` shrinks
every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
ROUND_TIMEOUT_S = 150
# One core per workload (--jobs 1 on a 2-core host): no BLAS thread pool on the other.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from recorder import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"ref_cpu_s": "s", "units_per_ref_cpu_s": "units/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
# Printed and recorded, not bounded: on a 2-vCPU virtual machine steal time
# made identical rounds' wall clock differ by up to 2.6 times, and the load on
# the physical core their CPU time by up to 2 times.
RAW = {"cpu_s": "s", "units_per_cpu_s": "units/s", "setup_cpu_s": "s",
       "wall_s": "s", "units_per_s": "units/s", "setup_wall_s": "s"}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"


def tail_percentile(values: list[float], beyond: int = 10):
    """(percent, value) of the highest percentile with ``beyond`` samples above it."""
    xs = sorted(values)
    if len(xs) <= beyond:
        return None
    i = len(xs) - 1 - beyond
    return round(100 * i / (len(xs) - 1)), xs[i]


def run_round(args, work: Path, traced: bool = False, setup_only: bool = False) -> dict:
    round_dir = Path(tempfile.mkdtemp(prefix="round", dir=work))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(round_dir)]
    if traced:
        cmd += ["--trace", str(OUT / "results" / f"{run_name(args)}-spans.npz")]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
                              env=WORKER_ENV)
        t_exit = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        t_exit, proc, res = time.monotonic(), None, None
        error = str(exc)
    else:
        error = proc.stderr.strip()[-2000:]
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)
    if res is None:
        return {"ok": False, "traced": traced, "round_s": t_exit - t_spawn, "units": None,
                "failed": None, "messages": [f"round process failed: {error}"]}
    res.update(ok=True, traced=traced, round_s=t_exit - t_spawn)
    if res["t_timed"] is not None:
        res["setup_wall_s"] = res["t_timed"] - t_spawn
    return res


def measure(args) -> tuple[list[dict], list[dict]]:
    """Full rounds for about --seconds, then set-up-only rounds in the time left.

    The set-up-only rounds stop where the timed phase would start; they give
    setup_s more samples where full rounds are few.
    """
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    rounds: list[dict] = []
    setups: list[dict] = []
    try:
        deadline = time.monotonic() + args.seconds
        min_rounds = 2 if args.trace else 1
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            rounds.append(run_round(args, work, traced))
            typical = statistics.median(r["round_s"] for r in rounds)
            if len(rounds) >= min_rounds and time.monotonic() + typical > deadline:
                break
        while not args.trace:
            typical = statistics.median(r["round_s"] for r in setups) if setups else 0.0
            if time.monotonic() + typical > deadline:
                break
            setups.append(run_round(args, work, setup_only=True))
        return rounds, setups
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(args, rounds: list[dict], setups: list[dict]) -> dict:
    """Aggregate rounds into the result record and apply the cross-round checks."""
    ok = [r for r in rounds if r["ok"]]
    messages = [m for r in rounds + setups for m in r["messages"]]
    reference = ok[0]["digest"] if ok else None
    per_round = max((r["units"] for r in ok), default=0)
    attempted = failed = 0
    for r in rounds:
        if not r["ok"]:
            attempted, failed = attempted + per_round, failed + per_round
            continue
        attempted += r["units"]
        if r["digest"] != reference:
            messages.append(f"round output {r['digest']} differs from {reference}")
            failed += r["units"]
        else:
            failed += r["failed"]
    timed = [r for r in ok if not r["traced"] and r["wall_s"] is not None]
    set_up = timed + [r for r in setups if r["ok"] and r["t_timed"] is not None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "rounds": len(rounds),
        "setup_rounds": len(setups), "digest": reference,
        "attempted": max(attempted, 1), "failed": failed, "messages": messages,
        "samples": {
            "ref_cpu_s": [r["ref_cpu_s"] for r in timed],
            "units_per_ref_cpu_s": [r["units"] / r["ref_cpu_s"] for r in timed],
            "setup_s": [r["setup_s"] for r in set_up],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "cpu_s": [r["cpu_s"] for r in timed],
            "units_per_cpu_s": [r["units"] / r["cpu_s"] for r in timed],
            "setup_cpu_s": [r["setup_cpu_s"] for r in set_up],
            "probe_share": [r["probe_kernel_s"] / (r["probe_kernel_s"] + r["setup_cpu_s"]
                                                   + r["cpu_s"]) for r in timed],
            "wall_s": [r["wall_s"] for r in timed],
            "units_per_s": [r["units"] / r["wall_s"] for r in timed],
            "setup_wall_s": [r["setup_wall_s"] for r in set_up],
        },
    }
    traced = [r for r in ok if r["traced"] and r["wall_s"] is not None]
    if args.trace:
        trace_metrics(record, traced, timed)
    record["fail_frac"] = record["failed"] / record["attempted"]
    return record


def trace_metrics(record: dict, traced: list[dict], timed: list[dict]) -> None:
    """Per-layer metrics: counts from the traced rounds, which must agree, and median times."""
    units = per_layer_units()
    rounds = [r["trace"]["metrics"] for r in traced]
    samples = {name: [m[name] for m in rounds] for name in units if name != "trace.overhead_s"}
    layers = {}
    for name, vals in samples.items():
        if units[name] == "s":
            layers[name] = statistics.median(vals)
            continue
        if len(set(vals)) > 1:
            record["messages"].append(f"traced count {name} differs between rounds: {vals}")
            record["failed"] = record["attempted"]
        layers[name] = vals[0]
    if traced and timed:
        layers["trace.overhead_s"] = (statistics.median(r["cpu_s"] for r in traced)
                                      - statistics.median(r["cpu_s"] for r in timed))
    record.update(layers=layers, layer_samples=samples,
                  spans=traced[0]["trace"]["spans"] if traced else {})


def report(record: dict) -> dict:
    """Print the human-readable summary and return the final JSON line."""
    s = record["samples"]
    print(f"workload {record['workload']} seed {record['seed']}: {record['rounds']} rounds, "
          f"trace {record['trace']}")
    for name, unit in {**END_TO_END, **RAW}.items():
        vals = s[name]
        if not vals:
            continue
        line = f"  {name}: median {statistics.median(vals):.6g} {unit}"
        if unit == "s":
            tail = tail_percentile(vals)
            line += (f", p{tail[0]} {tail[1]:.6g} {unit}" if tail
                     else ", no percentile has 10 rounds beyond it")
        print(line + f" ({len(vals)} rounds)")
    if s["probe_share"]:
        print(f"  speed probe: {100 * statistics.median(s['probe_share']):.2f}% of a round's CPU")
    print(f"  fail_frac: {record['fail_frac']:.6g} ({record['failed']} of "
          f"{record['attempted']} units)")
    print(f"  digest: {record['digest']}")
    for msg in record["messages"][:20]:
        print(f"  check: {msg}")
    if record["trace"]:
        layers = record["layers"]
        covered = layers.get("trace.covered_s") or math.nan
        for layer in LAYERS:
            v = layers.get(f"{layer}.self_s", math.nan)
            print(f"  self time {layer}: {v:.4f} s ({100 * v / covered:.1f}%)")
        if "trace.overhead_s" in layers:
            print(f"  tracing overhead: {layers['trace.overhead_s']:.4f} s of cpu_s")
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(s[name]), "unit": unit}
                   for name, unit in END_TO_END.items() if s[name]}
    correct = record["failed"] == 0 and not record["messages"] and bool(metrics)
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="epiroad benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "epiroad" / "__init__.py").is_file():
        print(f"benchmark: no epiroad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = summarize(args, *measure(args))
    line = report(record)
    path = OUT / "results" / f"{run_name(args)}.json"
    path.write_text(json.dumps({**record, "result": line}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
