"""Run the benchmark over several seeds, check its steadiness and record a baseline.

Usage:
    python3 benchmarks/baseline.py [--workloads neutrality,walks,evolve,build]
        [--seeds 0-9] [--seconds S] [--write benchmarks/BENCH_baseline.json --commit SHA]
        [--against benchmarks/BENCH_baseline.json]

For each workload, one untraced run per seed. For every end-to-end metric the
spread is the distance between the first and third quartile of the per-run
values (``statistics.quantiles(values, n=4)``) as a share of their median,
printed next to the metric's bound from BENCHMARK.json. Then two traced runs
on the first seed, whose per-layer counts must agree exactly. ``--write``
records the host, the commit, every entry as {name, layer, unit, workload,
median, iqr, rounds}, the output digests, the layer map and the self-time
shares. ``--against`` compares each end-to-end median with the one recorded
in an earlier baseline and fails if it is worse by more than the bound. The
exit code is 1 when a spread exceeds its bound (setup_s aside), a traced count
differs or a median fell outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from recorder import LAYERS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=True,
    )
    name = f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads((ROOT / ".bench_out" / "results" / name).read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--write", type=Path)
    p.add_argument("--commit", default="unknown")
    p.add_argument("--against", type=Path, help="an earlier baseline to compare medians with")
    args = p.parse_args(argv)
    earlier = {}
    if args.against:
        earlier = {(e["workload"], e["name"]): e["median"]
                   for e in json.loads(args.against.read_text())["entries"]
                   if e["layer"] == "end_to_end"}
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    entries, digests, fail_frac, layers, shares, steady = [], {}, {}, {}, {}, True

    for workload in args.workloads.split(","):
        records = [run(workload, seed, args.seconds, 0) for seed in seeds]
        digests[workload] = {r["seed"]: r["digest"] for r in records}
        fail_frac[workload] = {r["seed"]: r["fail_frac"] for r in records}
        print(f"{workload}: rounds per run {[r['rounds'] for r in records]}, "
              f"fail_frac {sorted(set(fail_frac[workload].values()))}")
        for name, m in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = ("ok" if spread < m["bound"] / 3
                    else "over 1/3 of bound" if spread <= m["bound"] else "OVER BOUND")
            if name != "setup_s" and spread > m["bound"]:
                steady = False
            line = (f"  {name:15s} median {med:12.6g} {m['unit']:8s} spread {spread:6.3f} "
                    f"bound {m['bound']}  {flag}")
            if (workload, name) in earlier:
                before = earlier[workload, name]
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                steady &= worse <= m["bound"]
                line += f"; {100 * worse:+.1f}% worse than the earlier median {before:.6g}"
            print(line)
            entries.append({"name": name, "layer": "end_to_end", "unit": m["unit"],
                            "workload": workload, "median": med, "iqr": q3 - q1,
                            "rounds": sum(r["rounds"] for r in records), "runs": len(records),
                            "spread": spread, "bound": m["bound"]})
        first, second = (run(workload, seeds[0], args.seconds, 1) for _ in range(2))
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        differ = [n for n, u in units.items()
                  if u != "s" and first["layers"].get(n) != second["layers"].get(n)]
        print(f"  traced counts repeat exactly: {not differ} {differ or ''}")
        steady &= not differ
        covered = first["layers"]["trace.covered_s"]
        shares[workload] = {layer: first["layers"][f"{layer}.self_s"] / covered
                            for layer in LAYERS}
        print("  self-time shares: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares[workload].items()))
        print(f"  tracing overhead: {first['layers']['trace.overhead_s']:.4g} s of cpu_s")
        layers[workload] = first["layers"]
        for name, unit in units.items():
            vals = first["layer_samples"].get(name, [first["layers"][name]])
            q1, med, q3 = quartiles(vals)
            entries.append({"name": name, "layer": name.split(".")[0], "unit": unit,
                            "workload": workload, "median": med, "iqr": q3 - q1,
                            "rounds": len(vals)})

    if args.write:
        import numpy

        doc = {
            "commit": args.commit,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": numpy.__version__, "machine": platform.machine()},
            "run_seconds": args.seconds, "seeds": seeds,
            "workloads": BENCH["workloads"],
            "entries": entries, "digests": digests, "fail_frac": fail_frac,
            "self_time_shares": shares, "per_layer": layers,
            "layer_map": json.loads((HERE / "layers.json").read_text())["map"],
        }
        args.write.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
