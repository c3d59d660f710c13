"""Experiment driver: landscape generation, walk campaigns, EA sweeps, presets.

Commands operate on an experiment spec (a JSON file or a built-in preset)
describing a grid of (n, k, b) cells, an instance count and a master seed.
``gen`` materializes seeded landscape files, ``analyze`` runs walk campaigns
over them, ``evolve`` runs the EA sweep, and ``reproduce`` runs a named
preset and prints observed values next to reference values where they exist.

All CSV outputs start with '#' provenance lines (artifact version, spec
hash, master seed, stream format, grid cells, timestamp); everything after
those lines is byte-identical across re-runs with identical inputs.
Landscape JSON files carry no timestamp and are byte-identical entirely.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, ea, landscapes, nk
from .analysis import (
    AdaptiveWalkCampaign,
    NeutralityCampaign,
    RandomWalkCampaign,
    neutrality_scan,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from .genotype import to_text
from .seeds import (
    STREAM_ADAPTIVE_WALK,
    STREAM_FORMAT,
    STREAM_NEUTRALITY,
    STREAM_RANDOM_WALK,
    derive_seed,
)

ARTIFACT = f"epiroad {__version__}"
ENV_SEED = "EPIROAD_SEED"

# Reference neutrality proportions (percent lower/equal/higher) for the
# table1 preset, n=8, k=4.
REFERENCE_NEUTRALITY = {
    2: (7.2, 85.8, 7.0),
    3: (2.8, 94.4, 2.8),
    4: (0.5, 98.9, 0.6),
}


# The campaign class behind each spec section; it owns the section's defaults and checks.
CAMPAIGNS = {
    "random_walks": RandomWalkCampaign,
    "adaptive_walks": AdaptiveWalkCampaign,
    "neutrality": NeutralityCampaign,
}
SPEC_KEYS = {"command", "grid", "instances", "seed", "out", "landscape_lambda_max", "ea",
             *CAMPAIGNS}


@dataclass
class ExperimentSpec:
    command: str | None = None
    cells: list[tuple[int, int, int]] = field(default_factory=list)
    instances: int = 10
    seed: int = 0
    out: str | None = None
    landscape_lambda_max: int | None = None
    # the campaign of each section the spec names, keyed by its name in CAMPAIGNS
    campaigns: dict = field(default_factory=dict)
    ea: ea.EaConfig = field(default_factory=ea.EaConfig)

    def lambda_max_for(self, n: int, b: int) -> int:
        if self.landscape_lambda_max is not None:
            return self.landscape_lambda_max
        # roomy default: covers 2nb random walks, lambda_max=50 adaptive
        # walks and the default max_program_size=100 EA cap
        return max(2 * n * b, 100)

    def sha256(self) -> str:
        """Hash of every effective setting: a section's defaults count as if spelled out."""
        payload = json.dumps(asdict(self), sort_keys=True).encode()  # tuples dump as lists
        return hashlib.sha256(payload).hexdigest()


class SpecError(ValueError):
    pass


def _integer(value) -> int | None:
    """``value`` if it is an int (a bool is not one), else None."""
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _parse_seed(value, source: str) -> int:
    """A master seed: an integer in [0, 2**64), given as a number or a string."""
    try:
        seed = _integer(int(value) if isinstance(value, str) else value)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 1 << 64:
        raise SpecError(f"{source}: seed must be an integer in [0, 2**64), got {value!r}")
    return seed


def _cells_from_grid(grid) -> list[tuple[int, int, int]]:
    """Every (n, k, b) of a grid whose ``n``, ``k`` and ``b`` are lists of integers."""
    if not isinstance(grid, dict):
        raise SpecError(f"grid must be a JSON object, got {grid!r}")

    def axis(key: str) -> list[int]:
        if key not in grid:
            raise SpecError(f"grid is missing key {key!r}")
        values = grid[key]
        if not isinstance(values, list) or any(_integer(v) is None for v in values):
            raise SpecError(f"grid values must be lists of integers, got {key}: {values!r}")
        if len(set(values)) < len(values):  # a repeated value would run its cells twice
            raise SpecError(f"grid values must not repeat, got {key}: {values!r}")
        return values

    ns, ks, bs = axis("n"), axis("k"), axis("b")
    return [(n, k, b) for n in ns for k in ks for b in bs]


def _campaign_sections(spec: ExperimentSpec, defaults: bool) -> dict:
    """The spec's campaigns by section name; with ``defaults``, all three if it names none."""
    if defaults and not spec.campaigns:
        # analyze with no explicit campaign settings runs everything at defaults
        return {name: campaign() for name, campaign in CAMPAIGNS.items()}
    return spec.campaigns


def validate_cells(spec: ExperimentSpec, command: str) -> None:
    """Check every cell, its landscapes' cap, and every walk or program bound against it.

    The bounds are those of what ``command``, or the command the spec
    declares, runs; the cap is ``spec.lambda_max_for(n, b)``.
    """
    commands = {command, spec.command}
    sections = _campaign_sections(spec, defaults="analyze" in commands)
    walk_caps = {name: campaign.lambda_max for name, campaign in sections.items()}
    program_cap = spec.ea.max_program_size if "evolve" in commands else None
    for n, k, b in spec.cells:
        if not 0 <= k <= n - 1:
            raise SpecError(f"invalid cell: k={k} must lie in [0, n-1] for n={n}")
        if b < 1:
            raise SpecError(f"invalid cell: b={b} must be >= 1 (n={n}, k={k})")
        if n > nk.EXHAUSTIVE_BOUND:
            raise SpecError(
                f"invalid cell: n={n} exceeds the exhaustive bound {nk.EXHAUSTIVE_BOUND}")
        lambda_max = spec.lambda_max_for(n, b)
        if lambda_max < n * b:
            raise SpecError(f"invalid cell: the landscape lambda_max={lambda_max} cannot hold "
                            f"one block per letter, n*b={n * b} (n={n}, k={k}, b={b})")
        # without its own cap a random walk stays within 2nb, a neutrality scan
        # within the landscape's lambda_max
        bounds = {f"{name} walk bound": 2 * n * b if cap is None and name == "random_walks"
                  else cap for name, cap in walk_caps.items()}
        bounds["ea max_program_size"] = program_cap
        for what, bound in bounds.items():
            if bound is not None and bound > lambda_max:
                raise SpecError(f"invalid cell: {what} {bound} exceeds the landscape "
                                f"lambda_max={lambda_max} (n={n}, k={k}, b={b})")


def load_spec(path) -> ExperimentSpec:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(f"spec file {path} must hold a JSON object")
    if set(data) - SPEC_KEYS:
        raise SpecError(f"spec file: unknown keys {sorted(set(data) - SPEC_KEYS)}; "
                        f"known: {sorted(SPEC_KEYS)}")
    if data.get("command") not in (None, "gen", "analyze", "evolve"):
        raise SpecError(f"spec file: command must be gen, analyze or evolve, "
                        f"got {data['command']!r}")
    if not isinstance(data.get("out", ""), (str, type(None))):
        raise SpecError(f"spec file: out must be a string, got {data['out']!r}")
    instances = _integer(data.get("instances", 10))
    if instances is None or instances < 1:
        raise SpecError(
            f"spec file: instances must be an integer >= 1, got {data['instances']!r}")
    for section in (*CAMPAIGNS, "ea"):
        if isinstance(data.get(section), dict) and "seed" in data[section]:
            raise SpecError(f"spec file: {section}: seed is not read; every run and campaign "
                            f"seed derives from the top-level seed")
    campaigns = {}
    for section, campaign in CAMPAIGNS.items():
        if data.get(section) is not None:
            try:
                campaigns[section] = campaign(**data[section])
            except (TypeError, ValueError) as exc:
                raise SpecError(f"spec file: {section}: {exc}") from None
    lambda_max = data.get("landscape_lambda_max")
    if lambda_max is not None:
        lambda_max = _integer(lambda_max)
        if lambda_max is None or lambda_max < 1:
            raise SpecError("spec file: landscape_lambda_max must be an integer >= 1, "
                            f"got {data['landscape_lambda_max']!r}")
    ea_settings = data.get("ea", {})
    if not isinstance(ea_settings, dict):
        raise SpecError(f"spec file: ea must be a JSON object, got {ea_settings!r}")
    try:
        ea_cfg = ea.EaConfig(**ea_settings)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec file: ea: {exc}") from None
    cells = _cells_from_grid(data.get("grid", {"n": [], "k": [], "b": []}))
    return ExperimentSpec(
        command=data.get("command"),
        cells=cells,
        instances=instances,
        seed=_parse_seed(data.get("seed", 0), "spec file"),
        out=data.get("out"),
        landscape_lambda_max=lambda_max,
        campaigns=campaigns,
        ea=ea_cfg,
    )


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def apply_scale(spec: ExperimentSpec, scale: float) -> ExperimentSpec:
    """Shrink (or grow) campaign sizes, run counts, instances and population."""
    if not 0 < scale < math.inf:
        raise SpecError(f"--scale must be a finite number > 0, got {scale!r}")
    if scale == 1.0:
        return spec
    # a spec that analyze may run and that names no campaign runs all three, so
    # all three scale; decided from the spec alone, so gen and analyze hash alike
    sections = _campaign_sections(spec, defaults=spec.command in (None, "analyze"))
    # local-optima statistics need two adaptive walks
    campaigns = {name: replace(campaign, walks=_scaled(campaign.walks, scale,
                                                       floor=2 if name == "adaptive_walks" else 1))
                 for name, campaign in sections.items()}
    cfg = spec.ea
    return replace(
        spec,
        instances=_scaled(spec.instances, scale),
        campaigns=campaigns,
        ea=replace(cfg, runs=_scaled(cfg.runs, scale),
                   population=_scaled(cfg.population, scale, floor=20),
                   generations=_scaled(cfg.generations, scale, floor=10)),
    )


# ---------------------------------------------------------------------------
# output plumbing


def landscape_path(out_dir: Path, n: int, k: int, b: int, idx: int) -> Path:
    return out_dir / "landscapes" / f"n{n:02d}_k{k:02d}_b{b}_i{idx:02d}.json"


def _units(spec: ExperimentSpec, out_dir: Path):
    """(landscape path, n, k, b, instance) of every unit the spec names, cell by cell."""
    for n, k, b in spec.cells:
        for idx in range(spec.instances):
            yield landscape_path(out_dir, n, k, b, idx), n, k, b, idx


def provenance_lines(spec: ExperimentSpec, command: str, timestamp: bool = True) -> list[str]:
    cells = " ".join(f"n{n}k{k}b{b}" for n, k, b in spec.cells)
    lines = [
        f"# artifact: {ARTIFACT}",
        f"# command: {command}",
        f"# spec_sha256: {spec.sha256()}",
        f"# master_seed: {spec.seed}",
        f"# stream_format: {STREAM_FORMAT}",
        f"# cells: {cells} instances={spec.instances}",
    ]
    if timestamp:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    return lines


def fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header_lines: list[str], fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with landscapes.open_atomic(path, newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: fmt(row.get(key, "")) for key in fieldnames})


# ---------------------------------------------------------------------------
# gen


def _gen_unit(args) -> str:
    path_str, n, k, b, idx, seed, lam_max, prov = args
    ls = landscapes.er_build(n, k, b, lam_max, seed=ea.landscape_seed(seed, n, k, b, idx))
    landscapes.save_landscape(ls, path_str, provenance=prov)
    return path_str


def cmd_gen(spec: ExperimentSpec, out_dir: Path, jobs: int = 1) -> int:
    validate_cells(spec, "gen")
    prov = {"artifact": ARTIFACT, "spec_sha256": spec.sha256(), "master_seed": spec.seed,
            "stream_format": STREAM_FORMAT}
    units = [(str(path), n, k, b, idx, spec.seed, spec.lambda_max_for(n, b),
              {**prov, "cell": [n, k, b, idx]}) for path, n, k, b, idx in _units(spec, out_dir)]
    (out_dir / "landscapes").mkdir(parents=True, exist_ok=True)
    failures: dict[tuple[int, int, int], list[str]] = {}
    written = _map_units_collect(_gen_unit, units, jobs, failures)
    print(f"gen: wrote {len(written)} landscape files under {out_dir / 'landscapes'}")
    return _report_failures("gen", spec, failures)


# ---------------------------------------------------------------------------
# analyze


# analysis columns copied from the adaptive campaign's WalkStats
_ADAPTIVE_FIELDS = ["optima_fitness_mean", "optima_fitness_std", "optima_fitness_skewness",
                    "optima_fitness_kurtosis", "mean_walk_length", "est_optima_distance"]


def _analyze_unit(args) -> dict:
    path_str, n, k, b, idx, master_seed, campaigns, raw_dir = args
    ls = landscapes.load_landscape(path_str)
    row: dict = {"n": n, "k": k, "b": b, "instance_seed": ls.nk.seed}
    raw_records: list[dict] = []

    def campaign(name: str, stream: int):
        # campaign seeds derive from the master seed
        return replace(campaigns[name], seed=derive_seed(master_seed, stream, n, k, b, idx))

    if "random_walks" in campaigns:
        rw = campaign("random_walks", STREAM_RANDOM_WALK)
        stats, raw = run_random_walk_campaign(ls, rw)
        for s in range(1, rw.s_max + 1):
            row[f"rho_{s}"] = stats.rho[s]
        row["tau"] = stats.tau
        if raw_dir:
            raw_records += [{"campaign": "random", "walk": w, "series": series.tolist()}
                            for w, series in enumerate(raw["series"])]
    if "adaptive_walks" in campaigns:
        stats, raw = run_adaptive_walk_campaign(
            ls, campaign("adaptive_walks", STREAM_ADAPTIVE_WALK))
        row.update((f, getattr(stats, f)) for f in _ADAPTIVE_FIELDS)
        if raw_dir:
            raw_records += [
                {"campaign": "adaptive", "walk": w,
                 "final": to_text(g, ls.n_letters),
                 "fitness": float(raw["final_fitness"][w]),
                 "length": int(raw["lengths"][w])}
                for w, g in enumerate(raw["endpoints"])
            ]
    if "neutrality" in campaigns:
        lower, equal, higher = neutrality_scan(ls, campaign("neutrality", STREAM_NEUTRALITY))
        row["frac_lower"] = lower
        row["frac_equal"] = equal
        row["frac_higher"] = higher
    if raw_dir and raw_records:
        raw_path = Path(raw_dir) / f"walks_n{n:02d}_k{k:02d}_b{b}_i{idx:02d}.jsonl"
        raw_path.parent.mkdir(parents=True, exist_ok=True)
        with landscapes.open_atomic(raw_path) as fh:
            for record in raw_records:
                fh.write(json.dumps(record) + "\n")
    return row


def _analysis_fieldnames(campaigns: dict) -> list[str]:
    names = ["n", "k", "b", "instance_seed"]
    if "random_walks" in campaigns:
        names += [f"rho_{s}" for s in range(1, campaigns["random_walks"].s_max + 1)] + ["tau"]
    if "adaptive_walks" in campaigns:
        names += _ADAPTIVE_FIELDS
    if "neutrality" in campaigns:
        names += ["frac_lower", "frac_equal", "frac_higher"]
    return names


def cmd_analyze(spec: ExperimentSpec, out_dir: Path, jobs: int = 1,
                raw: bool = False) -> tuple[int, dict]:
    """Run the walk campaigns: (exit code, {"analysis_summary": per-cell rows})."""
    campaigns = _campaign_sections(spec, defaults=True)
    raw_dir = str(out_dir / "raw") if raw else None
    rows, failures = _run_landscape_units("analyze", spec, out_dir, jobs, _analyze_unit,
                                          (spec.seed, campaigns, raw_dir))

    fieldnames = _analysis_fieldnames(campaigns)
    header = provenance_lines(spec, "analyze")
    write_csv(out_dir / "analysis_instances.csv", header, fieldnames, rows)

    metric_fields = fieldnames[4:]  # after n, k, b and instance_seed
    summary = []
    for (n, k, b), cell_rows in _rows_by_cell(spec, rows).items():
        agg = {"n": n, "k": k, "b": b, "instances_ok": len(cell_rows),
               "instances_failed": len(failures.get((n, k, b), []))}
        for f in metric_fields:
            agg[f] = float(np.mean([r[f] for r in cell_rows])) if cell_rows else float("nan")
        summary.append(agg)
    summary_fields = ["n", "k", "b", "instances_ok", "instances_failed"] + metric_fields
    write_csv(out_dir / "analysis_summary.csv", header, summary_fields, summary)
    print(f"analyze: wrote {out_dir / 'analysis_instances.csv'} and analysis_summary.csv "
          f"({len(rows)} instance rows)")
    return _report_failures("analyze", spec, failures), {"analysis_summary": summary}


def _run_landscape_units(command, spec, out_dir, jobs, fn, extra) -> tuple[list, dict]:
    """fn over (path, n, k, b, instance, *extra) per landscape file: (results, failures).

    A missing file is recorded as its unit's failure, so its siblings still
    run. A SpecError when files are named but none exists: gen has not been
    run for this output directory.
    """
    validate_cells(spec, command)
    units, failures = [], {}
    for path, n, k, b, idx in _units(spec, out_dir):
        if path.exists():
            units.append((str(path), n, k, b, idx, *extra))
        else:
            failures.setdefault((n, k, b), []).append(
                f"instance {idx}: missing landscape file {path}")
    if failures and not units:
        raise SpecError(f"missing landscape files under {out_dir / 'landscapes'}; run gen first")
    return _map_units_collect(fn, units, jobs, failures), failures


def _map_units_collect(fn, units, jobs, failures) -> list:
    """fn over units (path, n, k, b, instance, ...); failures are collected per cell."""
    out = []
    parallel = jobs > 1 and len(units) > 1
    if parallel:  # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        calls = [pool.submit(fn, u).result if parallel else partial(fn, u) for u in units]
        for u, call in zip(units, calls):
            try:
                out.append(call())
            except Exception as exc:  # a unit's failure must not abort its siblings
                failures.setdefault(u[1:4], []).append(f"instance {u[4]}: {exc}")
    return out


def _rows_by_cell(spec, rows) -> dict[tuple[int, int, int], list[dict]]:
    """The rows of each of the spec's cells, in the spec's cell order."""
    by_cell: dict = {cell: [] for cell in spec.cells}
    for row in rows:
        by_cell[row["n"], row["k"], row["b"]].append(row)
    return by_cell


def _report_failures(command, spec, failures) -> int:
    if not failures:
        return 0
    dead = 0
    for cell, msgs in sorted(failures.items()):
        for msg in msgs:
            print(f"{command}: cell n={cell[0]} k={cell[1]} b={cell[2]} {msg}", file=sys.stderr)
        if len(msgs) >= spec.instances:
            dead += 1
            print(f"{command}: cell n={cell[0]} k={cell[1]} b={cell[2]} failed entirely",
                  file=sys.stderr)
    return 1 if dead else 0


# ---------------------------------------------------------------------------
# evolve


def _evolve_unit(args) -> dict:
    path_str, n, k, b, idx, master_seed, cfg, want_traces = args
    ls = landscapes.load_landscape(path_str)
    inst = ea.run_instance(cfg, ls, n, k, b, idx, master_seed)
    rows = []
    traces = []
    for r, res in enumerate(inst.results):
        rows.append({
            "n": n, "k": k, "b": b,
            "instance_seed": inst.instance_seed,
            "run_index": r,
            "success": int(res.success),
            "generations_to_success":
                res.generations_to_success if res.generations_to_success is not None else "",
            "final_blocks": res.best_blocks_trace[-1],
        })
        if want_traces:
            for gen, (bf, bb) in enumerate(zip(res.best_fitness_trace, res.best_blocks_trace)):
                traces.append({
                    "n": n, "k": k, "b": b,
                    "instance_seed": inst.instance_seed, "run_index": r,
                    "generation": gen, "best_fitness": bf, "best_blocks": bb,
                })
    return {"rows": rows, "traces": traces}


def cmd_evolve(spec: ExperimentSpec, out_dir: Path, jobs: int = 1,
               traces: bool = False) -> tuple[int, dict]:
    """Run the EA sweep: (exit code, {"ea_summary": per-cell rows, "ea_traces": trace rows}).

    The trace rows are empty unless ``traces`` is set.
    """
    # run_instance derives each run's seed from the master seed
    results, failures = _run_landscape_units("evolve", spec, out_dir, jobs, _evolve_unit,
                                             (spec.seed, spec.ea, traces))

    run_rows = [row for res in results for row in res["rows"]]
    header = provenance_lines(spec, "evolve")
    run_fields = ["n", "k", "b", "instance_seed", "run_index", "success",
                  "generations_to_success", "final_blocks"]
    write_csv(out_dir / "ea_runs.csv", header, run_fields, run_rows)

    summary = []
    for (n, k, b), cell_rows in _rows_by_cell(spec, run_rows).items():
        successes = sum(r["success"] for r in cell_rows)
        gens = [r["generations_to_success"] for r in cell_rows
                if r["generations_to_success"] != ""]
        summary.append({
            "n": n, "k": k, "b": b,
            "instances": len({r["instance_seed"] for r in cell_rows}),
            "runs": len(cell_rows),
            "successes": successes,
            "success_rate": successes / len(cell_rows) if cell_rows else float("nan"),
            "mean_final_blocks":
                float(np.mean([r["final_blocks"] for r in cell_rows])) if cell_rows
                else float("nan"),
            "mean_generations_to_success":
                float(np.mean(gens)) if gens else float("nan"),
        })
    summary_fields = ["n", "k", "b", "instances", "runs", "successes", "success_rate",
                      "mean_final_blocks", "mean_generations_to_success"]
    write_csv(out_dir / "ea_summary.csv", header, summary_fields, summary)

    trace_rows = [row for res in results for row in res["traces"]]
    if traces:
        trace_fields = ["n", "k", "b", "instance_seed", "run_index", "generation",
                        "best_fitness", "best_blocks"]
        write_csv(out_dir / "ea_traces.csv", header, trace_fields, trace_rows)

    print(f"evolve: wrote {out_dir / 'ea_runs.csv'} and ea_summary.csv "
          f"({len(run_rows)} run rows)")
    return (_report_failures("evolve", spec, failures),
            {"ea_summary": summary, "ea_traces": trace_rows})


# ---------------------------------------------------------------------------
# presets: each report prints from the summary rows that analyze and evolve return


def _report_table1(tables) -> None:
    print("neutral-neighbor proportions, percent (observed | reference), n=8 k=4:")
    for row in sorted(tables["analysis_summary"], key=lambda r: r["b"]):
        ref = REFERENCE_NEUTRALITY.get(row["b"])
        obs = (100 * row["frac_lower"], 100 * row["frac_equal"], 100 * row["frac_higher"])
        line = (f"  b={row['b']}: lower/equal/higher = "
                f"{obs[0]:.1f}/{obs[1]:.1f}/{obs[2]:.1f}")
        if ref:
            line += f" | {ref[0]}/{ref[1]}/{ref[2]}"
        print(line)


def _report_tau(tables) -> None:
    summary = tables["analysis_summary"]
    print("mean correlation length tau by (k, b), n=10"
          " (reference trend: decreasing in k, flatter for larger b):")
    bs = sorted({r["b"] for r in summary})
    for b in bs:
        vals = [(r["k"], r["tau"]) for r in summary if r["b"] == b]
        txt = " ".join(f"k={k}:{tau:.2f}" for k, tau in sorted(vals))
        print(f"  b={b}: {txt}")


def _report_rho(tables) -> None:
    print("autocorrelation rho(s), s=1..5 shown, n=10:")
    for row in sorted(tables["analysis_summary"], key=lambda r: (r["b"], r["k"])):
        vals = " ".join(f"{row[f'rho_{s}']:.3f}" for s in range(1, 6))
        print(f"  k={row['k']} b={row['b']}: {vals}")


def _report_adaptive(tables) -> None:
    print("adaptive walks, n=10 (reference trends: length decreasing in k for small b;"
          " optima fitness decreasing in b):")
    for row in sorted(tables["analysis_summary"], key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: mean_length={row['mean_walk_length']:.2f} "
              f"optima_fitness={row['optima_fitness_mean']:.4f}")


def _report_success_rate(tables) -> None:
    print("EA success rate by (k, b), n=8 (reference trend: decreasing in k,"
          " steeper for larger b):")
    for row in sorted(tables["ea_summary"], key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: success_rate={row['success_rate']:.3f}")


def _report_mean_blocks(tables) -> None:
    print("EA mean blocks of best individual, n=16 (reference trend: decreasing"
          " as k or b increases):")
    for row in sorted(tables["ea_summary"], key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: mean_final_blocks={row['mean_final_blocks']:.2f}")


def _report_block_traces(tables) -> None:
    rows = tables["ea_traces"]
    print("mean best-blocks trace by generation, n=10 b=4 (every 10th generation):")
    ks = sorted({r["k"] for r in rows})
    for k in ks:
        per_gen: dict[int, list[float]] = {}
        for r in rows:
            if r["k"] == k:
                per_gen.setdefault(r["generation"], []).append(r["best_blocks"])
        gens = sorted(per_gen)
        txt = " ".join(f"{g}:{np.mean(per_gen[g]):.1f}" for g in gens if g % 10 == 0)
        print(f"  k={k}: {txt}")


def _report_corr_study(tables) -> None:
    analysis = {(r["n"], r["k"], r["b"]): r for r in tables["analysis_summary"]}
    ea_rows = {(r["n"], r["k"], r["b"]): r for r in tables["ea_summary"]}
    print("correlation study (no pass threshold applied):")
    for field, label in (("mean_walk_length", "adaptive walk length"),
                         ("tau", "random-walk correlation length")):
        xs, blocks = [], []
        for cell, row in analysis.items():
            if cell in ea_rows and not np.isnan(row[field]):
                xs.append(row[field])
                blocks.append(ea_rows[cell]["mean_final_blocks"])
        if len(xs) >= 2 and np.std(xs) > 0 and np.std(blocks) > 0:
            r = float(np.corrcoef(xs, blocks)[0, 1])
            print(f"  corr({label}, mean blocks found) = {r:.3f} over {len(xs)} cells")
        else:
            print(f"  corr({label}, mean blocks found): undefined over {len(xs)} cells")


_N10_CELLS = [(10, k, b) for k in range(10) for b in range(1, 6)]

# Each paper experiment at full scale, and the report it prints; the campaign
# defaults are the paper's sizes.
PRESETS = {
    "table1": (ExperimentSpec(
        command="analyze", cells=[(8, 4, b) for b in (2, 3, 4)],
        campaigns={"neutrality": NeutralityCampaign()}), _report_table1),
    "fig1": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"random_walks": RandomWalkCampaign()}), _report_tau),
    "fig3": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"random_walks": RandomWalkCampaign()}), _report_rho),
    "fig5": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"adaptive_walks": AdaptiveWalkCampaign()}), _report_adaptive),
    "fig6": (ExperimentSpec(
        command="evolve", cells=[(8, k, b) for k in range(0, 5) for b in range(2, 6)]),
        _report_success_rate),
    "fig7": (ExperimentSpec(
        command="evolve", cells=[(10, k, 4) for k in range(0, 6)],
        ea=ea.EaConfig(stop_on_success=False)), _report_block_traces),
    "fig8": (ExperimentSpec(
        command="evolve", cells=[(16, k, b) for k in range(0, 9) for b in range(2, 6)]),
        _report_mean_blocks),
    "corr-study": (ExperimentSpec(
        command="evolve",
        cells=[(n, k, b) for n in (8, 10, 16) for k in range(0, n // 2 + 1) for b in range(2, 6)],
        campaigns={"random_walks": RandomWalkCampaign(), "adaptive_walks": AdaptiveWalkCampaign()}),
        _report_corr_study),
}
PRESET_NAMES = tuple(PRESETS)


def build_preset(name: str, scale: float, seed: int) -> ExperimentSpec:
    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return apply_scale(replace(copy.deepcopy(PRESETS[name][0]), seed=seed), scale)


def cmd_reproduce(name: str, out_dir: Path, seed: int, scale: float, jobs: int) -> int:
    """gen, then analyze if the preset has campaigns and evolve if it evolves, then its report."""
    spec = build_preset(name, scale, seed)
    report = PRESETS[name][1]
    rc = cmd_gen(spec, out_dir, jobs)
    tables: dict = {}
    if rc == 0 and spec.campaigns:
        rc, tables = cmd_analyze(spec, out_dir, jobs)
    if rc == 0 and spec.command == "evolve":
        # only the trace report reads per-generation rows
        rc, evolved = cmd_evolve(spec, out_dir, jobs, traces=report is _report_block_traces)
        tables.update(evolved)
    if rc == 0:
        report(tables)
    return rc


# ---------------------------------------------------------------------------
# entry point


def _resolve_seed(args, spec_seed: int) -> int:
    # precedence: --seed flag, then EPIROAD_SEED, then the spec file
    if args.seed is not None:
        return _parse_seed(args.seed, "--seed")
    env = os.environ.get(ENV_SEED)
    if env is not None:
        return _parse_seed(env, ENV_SEED)
    return spec_seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epiroad",
        description="Tunable variable-length fitness landscapes: generation, "
                    "analysis campaigns and EA experiments.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in ("gen", "analyze", "evolve", "reproduce"):
        p = sub.add_parser(cmd)
        source = p.add_mutually_exclusive_group()  # the spec comes from a file or a preset
        if cmd != "reproduce":  # reproduce runs presets only
            source.add_argument("--spec", type=str, default=None, help="experiment spec JSON")
        source.add_argument("--preset", type=str, default=None,
                            help=f"built-in preset: {', '.join(PRESET_NAMES)}")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--scale", type=float, default=1.0,
                       help="multiply walk/run/instance counts (e.g. 0.1 for smoke tests)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel worker processes")
        if cmd == "evolve":
            p.add_argument("--traces", action="store_true",
                           help="also write per-generation traces")
        if cmd == "analyze":
            p.add_argument("--raw", action="store_true",
                           help="also write raw walk logs as JSON lines")
    args = parser.parse_args(argv)

    try:
        if args.jobs < 1:
            raise SpecError(f"--jobs must be an integer >= 1, got {args.jobs}")
        if args.cmd == "reproduce":
            if not args.preset:
                print(f"reproduce: --preset required; available: {', '.join(PRESET_NAMES)}",
                      file=sys.stderr)
                return 2
            seed = _resolve_seed(args, 0)
            out_dir = Path(args.out or f"epiroad-out/{args.preset}")
            return cmd_reproduce(args.preset, out_dir, seed, args.scale, args.jobs)

        if args.preset:
            spec = build_preset(args.preset, args.scale, 0)
        elif args.spec:
            spec = apply_scale(load_spec(args.spec), args.scale)
        else:
            print(f"{args.cmd}: provide --spec or --preset", file=sys.stderr)
            return 2
        if spec.command is not None and args.spec and spec.command != args.cmd:
            print(f"note: spec file declares command={spec.command!r}, running {args.cmd}",
                  file=sys.stderr)
        spec.seed = _resolve_seed(args, spec.seed)
        out_dir = Path(args.out or spec.out or "epiroad-out")

        if args.cmd == "gen":
            return cmd_gen(spec, out_dir, args.jobs)
        if args.cmd == "analyze":
            return cmd_analyze(spec, out_dir, args.jobs, raw=args.raw)[0]
        return cmd_evolve(spec, out_dir, args.jobs, traces=args.traces)[0]
    except SpecError as exc:
        print(f"{args.cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
