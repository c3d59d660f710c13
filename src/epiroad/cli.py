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
from collections.abc import Iterable, Iterator
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
from .genotype import BlockParams, to_text
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


def _analyzed_campaigns(spec: ExperimentSpec) -> dict:
    """The campaigns analyze runs: the spec's, or all three at their defaults if it names none."""
    return spec.campaigns or {name: campaign() for name, campaign in CAMPAIGNS.items()}


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

    def __post_init__(self):
        # a spec that analyze may run and that names no campaign runs all three
        if self.command in (None, "analyze"):
            self.campaigns = _analyzed_campaigns(self)

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
    unknown = sorted(set(grid) - {"n", "k", "b"})
    if unknown:
        raise SpecError(f"grid: unknown keys {unknown}; known: ['b', 'k', 'n']")

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


def validate_cells(spec: ExperimentSpec, command: str) -> None:
    """Check every cell as the runs of ``command``, or of the spec's command, will.

    The checks are the runs' own: the landscape's (``BlockParams`` at the cap
    ``spec.lambda_max_for(n, b)``, ``nk.check_k``, ``nk.check_n``), each
    campaign's ``cap`` and the EA's ``check_fits``. The first that fails ends
    the command with a message naming its section and the cell.
    """
    commands = {command, spec.command}
    sections = _analyzed_campaigns(spec) if "analyze" in commands else spec.campaigns
    checks = {name: campaign.cap for name, campaign in sections.items()}
    if "evolve" in commands:
        checks["ea"] = spec.ea.check_fits
    for n, k, b in spec.cells:
        section = ""
        try:
            params = BlockParams(n, b, spec.lambda_max_for(n, b))
            nk.check_k(n, k)
            nk.check_n(n)
            for section, check in checks.items():
                check(params)
        except ValueError as exc:
            where = f"{section} " if section else ""
            raise SpecError(f"invalid cell: {where}{exc} (n={n}, k={k}, b={b})") from None


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
        if section in data and not isinstance(data[section], dict):
            raise SpecError(f"spec file: {section} must be a JSON object, got {data[section]!r}")
        if "seed" in data.get(section, {}):
            raise SpecError(f"spec file: {section}: seed is not read; every run and campaign "
                            f"seed derives from the top-level seed")
    campaigns = {}
    for section, campaign in CAMPAIGNS.items():
        if section in data:
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
    try:
        ea_cfg = ea.EaConfig(**data.get("ea", {}))
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
    # local-optima statistics need two adaptive walks
    campaigns = {name: replace(campaign, walks=_scaled(campaign.walks, scale,
                                                       floor=2 if name == "adaptive_walks" else 1))
                 for name, campaign in spec.campaigns.items()}
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


def provenance_lines(spec: ExperimentSpec, command: str) -> list[str]:
    cells = " ".join(f"n{n}k{k}b{b}" for n, k, b in spec.cells)
    return [
        f"# artifact: {ARTIFACT}",
        f"# command: {command}",
        f"# spec_sha256: {spec.sha256()}",
        f"# master_seed: {spec.seed}",
        f"# stream_format: {STREAM_FORMAT}",
        f"# cells: {cells} instances={spec.instances}",
        f"# generated: {datetime.now(timezone.utc).isoformat()}",
    ]


def fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header_lines: list[str], fieldnames: list[str],
              rows: Iterable[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with landscapes.open_atomic(path, newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: fmt(row.get(key, "")) for key in fieldnames})


def _parse(text: str):
    """The int or float that ``fmt`` wrote as ``text``; "" (a None) stays ""."""
    if not text:
        return text
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_csv(path: Path) -> Iterator[dict]:
    """The rows ``write_csv`` wrote to ``path``, one dict at a time, below its '#' lines."""
    with open(path, newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            yield {key: _parse(text) for key, text in row.items()}


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
    try:
        (out_dir / "landscapes").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create output directory {out_dir / 'landscapes'}: "
                        f"{exc.strerror}") from None
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


def cmd_analyze(spec: ExperimentSpec, out_dir: Path, jobs: int = 1, raw: bool = False) -> int:
    """Run the walk campaigns; write their instance and summary tables to ``out_dir``."""
    campaigns = _analyzed_campaigns(spec)
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
    return _report_failures("analyze", spec, failures)


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


def _evolve_unit(args) -> tuple[list[dict], list[tuple[list[float], list[int]]]]:
    """(one row per run, each run's best-fitness and best-blocks traces if wanted)."""
    path_str, n, k, b, idx, master_seed, cfg, want_traces = args
    ls = landscapes.load_landscape(path_str)
    results = ea.run_instance(cfg, ls, n, k, b, idx, master_seed)
    rows = [{"n": n, "k": k, "b": b, "instance_seed": ls.nk.seed, "run_index": r,
             "success": int(res.success),
             "generations_to_success":
                 res.generations_to_success if res.generations_to_success is not None else "",
             "final_blocks": res.best_blocks_trace[-1]}
            for r, res in enumerate(results)]
    traces = [(res.best_fitness_trace, res.best_blocks_trace)
              for res in results] if want_traces else []
    return rows, traces


def cmd_evolve(spec: ExperimentSpec, out_dir: Path, jobs: int = 1, traces: bool = False) -> int:
    """Run the EA sweep; write its run and summary tables, and traces if asked, to ``out_dir``."""
    # run_instance derives each run's seed from the master seed
    results, failures = _run_landscape_units("evolve", spec, out_dir, jobs, _evolve_unit,
                                             (spec.seed, spec.ea, traces))

    run_rows = [row for rows, _ in results for row in rows]
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

    if traces:  # one row per run and generation, made as it is written
        trace_rows = (dict(row, generation=gen, best_fitness=f, best_blocks=blocks)
                      for rows, runs in results for row, run in zip(rows, runs)
                      for gen, (f, blocks) in enumerate(zip(*run)))
        write_csv(out_dir / "ea_traces.csv", header,
                  run_fields[:5] + ["generation", "best_fitness", "best_blocks"], trace_rows)

    print(f"evolve: wrote {out_dir / 'ea_runs.csv'} and ea_summary.csv "
          f"({len(run_rows)} run rows)")
    return _report_failures("evolve", spec, failures)


# ---------------------------------------------------------------------------
# presets: each report is (table, title, lines) over the tables analyze and evolve
# write. ``lines`` is a format string for each row of ``table`` in (b, k) order,
# or a function of a table reader (a table's name -> its rows) that yields the lines.


def _table1_lines(read):
    for row in sorted(read("analysis_summary"), key=lambda r: r["b"]):
        ref = REFERENCE_NEUTRALITY.get(row["b"])
        obs = (100 * row["frac_lower"], 100 * row["frac_equal"], 100 * row["frac_higher"])
        line = f"  b={row['b']}: lower/equal/higher = {obs[0]:.1f}/{obs[1]:.1f}/{obs[2]:.1f}"
        yield line + (f" | {ref[0]}/{ref[1]}/{ref[2]}" if ref else "")


def _tau_lines(read):
    summary = list(read("analysis_summary"))
    for b in sorted({r["b"] for r in summary}):
        vals = sorted((r["k"], r["tau"]) for r in summary if r["b"] == b)
        yield f"  b={b}: " + " ".join(f"k={k}:{tau:.2f}" for k, tau in vals)


def _block_trace_lines(read):
    per_k: dict[int, dict[int, list[int]]] = {}  # best_blocks by k and every 10th generation
    for r in read("ea_traces"):
        if r["generation"] % 10 == 0:
            per_k.setdefault(r["k"], {}).setdefault(r["generation"], []).append(r["best_blocks"])
    for k, per_gen in sorted(per_k.items()):
        yield f"  k={k}: " + " ".join(f"{g}:{np.mean(blocks):.1f}"
                                      for g, blocks in sorted(per_gen.items()))


def _corr_study_lines(read):
    analysis = {(r["n"], r["k"], r["b"]): r for r in read("analysis_summary")}
    ea_rows = {(r["n"], r["k"], r["b"]): r for r in read("ea_summary")}
    for field, label in (("mean_walk_length", "adaptive walk length"),
                         ("tau", "random-walk correlation length")):
        xs, blocks = [], []
        for cell, row in analysis.items():
            if cell in ea_rows and not np.isnan(row[field]):
                xs.append(row[field])
                blocks.append(ea_rows[cell]["mean_final_blocks"])
        if len(xs) >= 2 and np.std(xs) > 0 and np.std(blocks) > 0:
            r = float(np.corrcoef(xs, blocks)[0, 1])
            yield f"  corr({label}, mean blocks found) = {r:.3f} over {len(xs)} cells"
        else:
            yield f"  corr({label}, mean blocks found): undefined over {len(xs)} cells"


_N10_CELLS = [(10, k, b) for k in range(10) for b in range(1, 6)]

# Each paper experiment at full scale, and the report it prints; the campaign
# defaults are the paper's sizes.
PRESETS = {
    "table1": (ExperimentSpec(
        command="analyze", cells=[(8, 4, b) for b in (2, 3, 4)],
        campaigns={"neutrality": NeutralityCampaign()}),
        ("analysis_summary", "neutral-neighbor proportions, percent (observed | reference),"
         " n=8 k=4:", _table1_lines)),
    "fig1": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"random_walks": RandomWalkCampaign()}),
        ("analysis_summary", "mean correlation length tau by (k, b), n=10"
         " (reference trend: decreasing in k, flatter for larger b):", _tau_lines)),
    "fig3": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"random_walks": RandomWalkCampaign()}),
        ("analysis_summary", "autocorrelation rho(s), s=1..5 shown, n=10:",
         "  k={k} b={b}: {rho_1:.3f} {rho_2:.3f} {rho_3:.3f} {rho_4:.3f} {rho_5:.3f}")),
    "fig5": (ExperimentSpec(
        command="analyze", cells=_N10_CELLS,
        campaigns={"adaptive_walks": AdaptiveWalkCampaign()}),
        ("analysis_summary", "adaptive walks, n=10 (reference trends: length decreasing in k"
         " for small b; optima fitness decreasing in b):",
         "  k={k} b={b}: mean_length={mean_walk_length:.2f}"
         " optima_fitness={optima_fitness_mean:.4f}")),
    "fig6": (ExperimentSpec(
        command="evolve", cells=[(8, k, b) for k in range(0, 5) for b in range(2, 6)]),
        ("ea_summary", "EA success rate by (k, b), n=8 (reference trend: decreasing in k,"
         " steeper for larger b):",
         "  k={k} b={b}: success_rate={success_rate:.3f}")),
    "fig7": (ExperimentSpec(
        command="evolve", cells=[(10, k, 4) for k in range(0, 6)],
        ea=ea.EaConfig(stop_on_success=False)),
        ("ea_traces", "mean best-blocks trace by generation, n=10 b=4"
         " (every 10th generation):", _block_trace_lines)),
    "fig8": (ExperimentSpec(
        command="evolve", cells=[(16, k, b) for k in range(0, 9) for b in range(2, 6)]),
        ("ea_summary", "EA mean blocks of best individual, n=16 (reference trend: decreasing"
         " as k or b increases):",
         "  k={k} b={b}: mean_final_blocks={mean_final_blocks:.2f}")),
    "corr-study": (ExperimentSpec(
        command="evolve",
        cells=[(n, k, b) for n in (8, 10, 16) for k in range(0, n // 2 + 1) for b in range(2, 6)],
        campaigns={"random_walks": RandomWalkCampaign(), "adaptive_walks": AdaptiveWalkCampaign()}),
        ("ea_summary", "correlation study (no pass threshold applied):", _corr_study_lines)),
}
PRESET_NAMES = tuple(PRESETS)


def build_preset(name: str, scale: float, seed: int) -> ExperimentSpec:
    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return apply_scale(replace(copy.deepcopy(PRESETS[name][0]), seed=seed), scale)


def cmd_reproduce(name: str, out_dir: Path, seed: int, scale: float, jobs: int) -> int:
    """gen, then analyze if the preset has campaigns and evolve if it evolves, then its report.

    The report reads the tables that those commands wrote to ``out_dir``.
    """
    spec = build_preset(name, scale, seed)
    table, title, lines = PRESETS[name][1]
    rc = cmd_gen(spec, out_dir, jobs)
    if rc == 0 and spec.campaigns:
        rc = cmd_analyze(spec, out_dir, jobs)
    if rc == 0 and spec.command == "evolve":
        # only a report of the traces reads per-generation rows
        rc = cmd_evolve(spec, out_dir, jobs, traces=table == "ea_traces")
    if rc == 0:
        if isinstance(lines, str):  # one line per row of the table
            rows = sorted(read_csv(out_dir / f"{table}.csv"), key=lambda r: (r["b"], r["k"]))
            report = [lines.format(**row) for row in rows]
        else:
            report = lines(lambda name: read_csv(out_dir / f"{name}.csv"))
        print(title, *report, sep="\n")
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
            return cmd_analyze(spec, out_dir, args.jobs, raw=args.raw)
        return cmd_evolve(spec, out_dir, args.jobs, traces=args.traces)
    except SpecError as exc:
        print(f"{args.cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
