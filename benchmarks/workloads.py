"""The benchmark's workloads: the specs each one runs, its units of work and its checks.

A workload is one or more experiment specs (epiroad's spec JSON) that one
process sets up with ``gen`` and then times with ``analyze`` or ``evolve``;
``build`` times ``gen`` itself plus reloading every landscape it wrote. The
workload seed becomes the specs' master seed and changes nothing else, so a
run's cost does not depend on which seed it was given.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

WORKLOADS = ("neutrality", "walks", "evolve", "build")

# The speed probe's kernel (speed.KERNELS) for each workload's timed phase:
# the neighbor classifier is pure-Python int, tuple and list work; the others
# spend their time in small numpy calls (walks, evolve) or large numpy passes
# (build). Set-up, mostly imports and gen's numpy passes, uses the numpy kernel.
PROBE_KERNEL = {"neutrality": "python", "walks": "numpy", "evolve": "numpy", "build": "numpy"}

# The paper's EA settings. The generation cap is the benchmark's: the n=16
# cell never reaches the optimum within it, the n=8 cell stops after 2-4
# generations. One run on each of several instances averages out how much an
# offspring costs on one landscape, which varies by about 10%; the n=16 cell
# holds most of the work, so the early stop moves a round's work by a few %.
EA = {"population": 1000, "tournament_size": 4, "crossover_rate": 0.3,
      "mutation_rate": 0.9, "max_program_size": 100, "stop_on_success": True,
      "generations": 6, "runs": 1}
EA_TINY = {**EA, "population": 20, "generations": 3, "runs": 1}


def _spec(command: str, n, k, b, seed: int, instances: int = 1, **settings) -> dict:
    return {"command": command, "grid": {"n": n, "k": k, "b": b}, "instances": instances,
            "seed": seed, **settings}


def specs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The specs one round of ``workload`` runs; ``tiny`` shrinks them for smoke tests."""
    if workload == "neutrality":
        # table1's cells
        walks = 3 if tiny else 100
        return [_spec("analyze", [8], [4], [2, 3, 4], seed,
                      neutrality={"walks": walks, "length": 20})]
    if workload == "walks":
        # fig1/fig3/fig5 shapes: k and b at both ends and the middle
        rw, aw = (3, 2) if tiny else (100, 40)
        return [_spec("analyze", [10], [0, 5, 9], [1, 3, 5], seed,
                      random_walks={"walks": rw, "length": 35, "s_max": 20},
                      adaptive_walks={"walks": aw, "lambda_max": 50})]
    if workload == "evolve":
        ea, early, full = (EA_TINY, 1, 1) if tiny else (EA, 3, 5)
        return [_spec("evolve", [8], [0], [3], seed, early, ea=ea),
                _spec("evolve", [16], [4], [3], seed, full, ea=ea)]
    if workload == "build":
        n, ks = (12, [2, 6]) if tiny else (20, [2, 10])
        return [_spec("gen", [n], ks, [2], seed)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def expected_instances(spec: dict) -> int:
    g = spec["grid"]
    return len(g["n"]) * len(g["k"]) * len(g["b"]) * spec["instances"]


def read_csv_body(path: Path) -> tuple[bytes, list[dict]]:
    """The CSV text after its '#' provenance lines, and its parsed rows."""
    lines = [line for line in path.read_text().splitlines(keepends=True)
             if not line.startswith("#")]
    return "".join(lines).encode(), list(csv.DictReader(lines))


def analysis_columns(spec: dict) -> list[str]:
    cols = []
    if "random_walks" in spec:
        cols += [f"rho_{s}" for s in range(1, spec["random_walks"]["s_max"] + 1)] + ["tau"]
    if "adaptive_walks" in spec:
        cols += ["optima_fitness_mean", "optima_fitness_std", "optima_fitness_skewness",
                 "optima_fitness_kurtosis", "mean_walk_length", "est_optima_distance"]
    if "neutrality" in spec:
        cols += ["frac_lower", "frac_equal", "frac_higher"]
    return cols


def _check_analysis_row(spec: dict, row: dict) -> str | None:
    try:
        vals = {c: float(row[c]) for c in analysis_columns(spec)}
    except (KeyError, ValueError, TypeError):
        return f"row {row.get('n')},{row.get('k')},{row.get('b')} lacks a promised column"
    if "neutrality" in spec:
        fracs = [vals["frac_lower"], vals["frac_equal"], vals["frac_higher"]]
        if not all(0.0 <= f <= 1.0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            return f"neutrality fractions {fracs} do not sum to 1"
    for s in range(1, spec.get("random_walks", {}).get("s_max", 0) + 1):
        rho = vals[f"rho_{s}"]
        if not math.isnan(rho) and abs(rho) > 1.0 + 1e-9:
            return f"rho_{s}={rho} outside [-1, 1]"
    if "adaptive_walks" in spec and not vals["mean_walk_length"] >= 0.0:
        return f"mean_walk_length={vals['mean_walk_length']} is negative"
    return None


def _analysis_units(spec: dict) -> int:
    units = 0
    if "neutrality" in spec:
        units += spec["neutrality"]["walks"] * (spec["neutrality"]["length"] + 1)
    units += spec.get("random_walks", {}).get("walks", 0)
    units += spec.get("adaptive_walks", {}).get("walks", 0)
    return units


def _ea_cap_units(spec: dict) -> int:
    return 2 * spec["ea"]["population"] * spec["ea"]["generations"]


def _ea_row(spec: dict, row: dict) -> tuple[int, str | None]:
    """(offspring evaluated, failure message) for one EA run row."""
    cap = spec["ea"]["generations"]
    try:
        n, success, blocks = int(row["n"]), int(row["success"]), int(row["final_blocks"])
        gens = int(row["generations_to_success"]) if success else cap
    except (KeyError, ValueError, TypeError):
        return _ea_cap_units(spec), "EA row lacks a promised column"
    units = 2 * spec["ea"]["population"] * gens
    if success and blocks != n:
        return units, f"EA row success=1 with final_blocks={blocks} != n={n}"
    if not 0 <= gens <= cap or not 0 <= blocks <= n:
        return units, f"EA row out of range: generations={gens} final_blocks={blocks}"
    return units, None


def _check_build(spec: dict, out: Path, digest, loaded: dict, messages: list) -> tuple[int, int]:
    files = sorted((out / "landscapes").glob("*.json"))
    all_ones = (1 << spec["grid"]["n"][0]) - 1
    failed = 0
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
        built, reloaded, argmax = loaded.get(str(path), (None, None, None))
        if built is None or built != reloaded:
            messages.append(f"{path.name}: reloaded table differs from the built one")
            failed += 1
        elif argmax != all_ones:
            messages.append(f"{path.name}: argmax {argmax} is not the all-ones index")
            failed += 1
    want = expected_instances(spec)
    return want, failed + max(0, want - len(files))


def _check_csv(spec: dict, out: Path, digest, messages: list) -> tuple[int, int]:
    evolve = spec["command"] == "evolve"
    names = ("ea_runs.csv", "ea_summary.csv") if evolve else \
        ("analysis_instances.csv", "analysis_summary.csv")
    want_rows = expected_instances(spec) * (spec["ea"]["runs"] if evolve else 1)
    # a missing row counts as failed work: at the generation cap for EA runs
    per_missing = _ea_cap_units(spec) if evolve else _analysis_units(spec)
    try:
        bodies = [read_csv_body(out / name) for name in names]
    except OSError as exc:
        messages.append(f"missing output: {exc}")
        return want_rows * per_missing, want_rows * per_missing
    for body, _ in bodies:
        digest.update(body + b"\0")
    rows = bodies[0][1]
    units = failed = 0
    for row in rows:
        if evolve:
            u, msg = _ea_row(spec, row)
        else:
            u, msg = _analysis_units(spec), _check_analysis_row(spec, row)
        units += u
        if msg:
            messages.append(msg)
            failed += u
    missing = max(0, want_rows - len(rows)) * per_missing
    return units + missing, failed + missing


def check_outputs(spec_list: list[dict], out_dirs: list[Path], loaded: dict) -> dict:
    """Hash the outputs and check their invariants.

    Returns units of work done, units failed, the sha256 of the outputs and
    one message per failed check. ``loaded`` maps each landscape file of the
    build workload to (table sha256 when built, when reloaded, argmax).
    """
    digest = hashlib.sha256()
    units = failed = 0
    messages: list[str] = []
    for spec, out in zip(spec_list, out_dirs):
        if spec["command"] == "gen":
            u, f = _check_build(spec, out, digest, loaded, messages)
        else:
            u, f = _check_csv(spec, out, digest, messages)
        units, failed = units + u, failed + f
    return {"units": units, "failed": failed, "digest": digest.hexdigest(),
            "messages": messages}
