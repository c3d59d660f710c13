"""Experiment driver: landscape generation, walk campaigns, EA sweeps, presets.

Commands operate on an experiment spec (a JSON file or a built-in preset)
describing a grid of (n, k, b) cells, an instance count and a master seed.
``gen`` materializes seeded landscape files, ``analyze`` runs walk campaigns
over them, ``evolve`` runs the EA sweep, and ``reproduce`` runs a named
preset and prints observed values next to reference values where they exist.

All CSV outputs start with '#' provenance lines (artifact version, spec
hash, master seed, grid cells, timestamp); everything after those lines is
byte-identical across re-runs with identical inputs. Landscape JSON files
carry no timestamp and are byte-identical entirely.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, ea, landscapes, nk
from .analysis import (
    AdaptiveWalkCampaign,
    RandomWalkCampaign,
    neutrality_scan,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from .genotype import to_text
from .seeds import STREAM_ADAPTIVE_WALK, STREAM_NEUTRALITY, STREAM_RANDOM_WALK, derive_seed

ARTIFACT = f"epiroad {__version__}"
ENV_SEED = "EPIROAD_SEED"

PRESET_NAMES = ("table1", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "corr-study")

# Reference neutrality proportions (percent lower/equal/higher) for the
# table1 preset, n=8, k=4.
REFERENCE_NEUTRALITY = {
    2: (7.2, 85.8, 7.0),
    3: (2.8, 94.4, 2.8),
    4: (0.5, 98.9, 0.6),
}


@dataclass
class CampaignSettings:
    random_walks: dict | None = None  # walks, length, s_max
    adaptive_walks: dict | None = None  # walks, lambda_max
    neutrality: dict | None = None  # walks, length


@dataclass
class ExperimentSpec:
    command: str | None = None
    cells: list[tuple[int, int, int]] = field(default_factory=list)
    instances: int = 10
    seed: int = 0
    out: str | None = None
    landscape_lambda_max: int | None = None
    campaigns: CampaignSettings = field(default_factory=CampaignSettings)
    ea: dict = field(default_factory=dict)

    def lambda_max_for(self, n: int, b: int) -> int:
        if self.landscape_lambda_max is not None:
            return self.landscape_lambda_max
        # roomy default: covers 2nb random walks, lambda_max=50 adaptive
        # walks and the default max_program_size=100 EA cap
        return max(2 * n * b, 100)

    def to_canonical_dict(self) -> dict:
        d = asdict(self)
        d["cells"] = [list(c) for c in self.cells]
        return d

    def sha256(self) -> str:
        payload = json.dumps(self.to_canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


class SpecError(ValueError):
    pass


def _parse_seed(value, source: str) -> int:
    """A master seed: an integer in [0, 2**64), given as a number or a string."""
    integral = isinstance(value, (int, str)) and not isinstance(value, bool)
    try:
        seed = int(value) if integral else -1
    except ValueError:
        seed = -1
    if not 0 <= seed < 1 << 64:
        raise SpecError(f"{source}: seed must be an integer in [0, 2**64), got {value!r}")
    return seed


def _cells_from_grid(grid: dict) -> list[tuple[int, int, int]]:
    try:
        ns, ks, bs = grid["n"], grid["k"], grid["b"]
    except KeyError as e:
        raise SpecError(f"grid is missing key {e}") from None
    return [(int(n), int(k), int(b)) for n in ns for k in ks for b in bs]


def validate_cells(cells: list[tuple[int, int, int]]) -> None:
    for n, k, b in cells:
        if not 0 <= k <= n - 1:
            raise SpecError(f"invalid cell: k={k} must lie in [0, n-1] for n={n}")
        if b < 1:
            raise SpecError(f"invalid cell: b={b} must be >= 1 (n={n}, k={k})")
        if n > nk.EXHAUSTIVE_BOUND:
            raise SpecError(
                f"invalid cell: n={n} exceeds the exhaustive bound {nk.EXHAUSTIVE_BOUND}")


def load_spec(path) -> ExperimentSpec:
    data = json.loads(Path(path).read_text())
    cells = _cells_from_grid(data.get("grid", {"n": [], "k": [], "b": []}))
    campaigns = CampaignSettings(
        random_walks=data.get("random_walks"),
        adaptive_walks=data.get("adaptive_walks"),
        neutrality=data.get("neutrality"),
    )
    return ExperimentSpec(
        command=data.get("command"),
        cells=cells,
        instances=int(data.get("instances", 10)),
        seed=_parse_seed(data.get("seed", 0), "spec file"),
        out=data.get("out"),
        landscape_lambda_max=data.get("landscape_lambda_max"),
        campaigns=campaigns,
        ea=data.get("ea", {}),
    )


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def apply_scale(spec: ExperimentSpec, scale: float) -> ExperimentSpec:
    """Shrink (or grow) campaign sizes, run counts, instances and population."""
    if scale == 1.0:
        return spec
    c = spec.campaigns
    campaigns = CampaignSettings(
        random_walks=None if c.random_walks is None
        else {**c.random_walks, "walks": _scaled(c.random_walks.get("walks", 20000), scale)},
        adaptive_walks=None if c.adaptive_walks is None
        else {**c.adaptive_walks, "walks": _scaled(c.adaptive_walks.get("walks", 2000), scale)},
        neutrality=None if c.neutrality is None
        else {**c.neutrality, "walks": _scaled(c.neutrality.get("walks", 2000), scale)},
    )
    ea_cfg = dict(spec.ea)
    ea_cfg["runs"] = _scaled(ea_cfg.get("runs", 35), scale)
    ea_cfg["population"] = _scaled(ea_cfg.get("population", 1000), scale, floor=20)
    ea_cfg["generations"] = _scaled(ea_cfg.get("generations", 400), scale, floor=10)
    return replace(
        spec,
        instances=_scaled(spec.instances, scale),
        campaigns=campaigns,
        ea=ea_cfg,
    )


# ---------------------------------------------------------------------------
# output plumbing


def landscape_path(out_dir: Path, n: int, k: int, b: int, idx: int) -> Path:
    return out_dir / "landscapes" / f"n{n:02d}_k{k:02d}_b{b}_i{idx:02d}.json"


def provenance_lines(spec: ExperimentSpec, command: str, timestamp: bool = True) -> list[str]:
    cells = " ".join(f"n{n}k{k}b{b}" for n, k, b in spec.cells)
    lines = [
        f"# artifact: {ARTIFACT}",
        f"# command: {command}",
        f"# spec_sha256: {spec.sha256()}",
        f"# master_seed: {spec.seed}",
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
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: fmt(row.get(key, "")) for key in fieldnames})


# ---------------------------------------------------------------------------
# gen


def _gen_unit(args) -> str:
    n, k, b, idx, seed, lam_max, path_str, prov = args
    ls = landscapes.er_build(n, k, b, lam_max, seed=ea.landscape_seed(seed, n, k, b, idx))
    Path(path_str).parent.mkdir(parents=True, exist_ok=True)
    landscapes.save_landscape(ls, path_str, provenance=prov)
    return path_str


def cmd_gen(spec: ExperimentSpec, out_dir: Path, jobs: int = 1) -> int:
    validate_cells(spec.cells)
    units = []
    for n, k, b in spec.cells:
        for idx in range(spec.instances):
            prov = {
                "artifact": ARTIFACT,
                "spec_sha256": spec.sha256(),
                "master_seed": spec.seed,
                "cell": [n, k, b, idx],
            }
            units.append((n, k, b, idx, spec.seed, spec.lambda_max_for(n, b),
                          str(landscape_path(out_dir, n, k, b, idx)), prov))
    for path in _map_units(_gen_unit, units, jobs):
        pass
    print(f"gen: wrote {len(units)} landscape files under {out_dir / 'landscapes'}")
    return 0


def _map_units(fn, units, jobs):
    if jobs <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, units))


# ---------------------------------------------------------------------------
# analyze


def _analyze_unit(args) -> dict:
    path_str, n, k, b, idx, master_seed, settings, raw_dir = args
    ls = landscapes.load_landscape(path_str)
    row: dict = {"n": n, "k": k, "b": b, "instance_seed": ls.nk.seed}
    raw_records: list[dict] = []
    rw = settings.get("random_walks")
    if rw is not None:
        campaign = RandomWalkCampaign(
            walks=rw.get("walks", 20000),
            length=rw.get("length", 35),
            lambda_max=rw.get("lambda_max"),
            s_max=rw.get("s_max", 20),
            seed=derive_seed(master_seed, STREAM_RANDOM_WALK, n, k, b, idx),
        )
        stats, raw = run_random_walk_campaign(ls, campaign)
        for s in range(1, campaign.s_max + 1):
            row[f"rho_{s}"] = stats.rho[s]
        row["tau"] = stats.tau
        if raw_dir:
            raw_records += [{"campaign": "random", "walk": w, "series": series.tolist()}
                            for w, series in enumerate(raw["series"])]
    aw = settings.get("adaptive_walks")
    if aw is not None:
        campaign = AdaptiveWalkCampaign(
            walks=aw.get("walks", 2000),
            lambda_max=aw.get("lambda_max", 50),
            seed=derive_seed(master_seed, STREAM_ADAPTIVE_WALK, n, k, b, idx),
        )
        stats, raw = run_adaptive_walk_campaign(ls, campaign)
        row["optima_fitness_mean"] = stats.optima_fitness_mean
        row["optima_fitness_std"] = stats.optima_fitness_std
        row["optima_fitness_skewness"] = stats.optima_fitness_skewness
        row["optima_fitness_kurtosis"] = stats.optima_fitness_kurtosis
        row["mean_walk_length"] = stats.mean_walk_length
        row["est_optima_distance"] = stats.est_optima_distance
        if raw_dir:
            raw_records += [
                {"campaign": "adaptive", "walk": w,
                 "final": to_text(g, ls.n_letters),
                 "fitness": float(raw["final_fitness"][w]),
                 "length": int(raw["lengths"][w])}
                for w, g in enumerate(raw["endpoints"])
            ]
    nt = settings.get("neutrality")
    if nt is not None:
        lower, equal, higher = neutrality_scan(
            ls,
            walks=nt.get("walks", 2000),
            length=nt.get("length", 20),
            seed=derive_seed(master_seed, STREAM_NEUTRALITY, n, k, b, idx),
            lambda_max=nt.get("lambda_max"),
        )
        row["frac_lower"] = lower
        row["frac_equal"] = equal
        row["frac_higher"] = higher
    if raw_dir and raw_records:
        raw_path = Path(raw_dir) / f"walks_n{n:02d}_k{k:02d}_b{b}_i{idx:02d}.jsonl"
        raw_path.parent.mkdir(parents=True, exist_ok=True)
        with open(raw_path, "w") as fh:
            for record in raw_records:
                fh.write(json.dumps(record) + "\n")
    return row


def _analysis_fieldnames(settings: dict) -> list[str]:
    names = ["n", "k", "b", "instance_seed"]
    rw = settings.get("random_walks")
    if rw is not None:
        names += [f"rho_{s}" for s in range(1, rw.get("s_max", 20) + 1)] + ["tau"]
    if settings.get("adaptive_walks") is not None:
        names += ["optima_fitness_mean", "optima_fitness_std",
                  "optima_fitness_skewness", "optima_fitness_kurtosis",
                  "mean_walk_length", "est_optima_distance"]
    if settings.get("neutrality") is not None:
        names += ["frac_lower", "frac_equal", "frac_higher"]
    return names


def cmd_analyze(spec: ExperimentSpec, out_dir: Path, jobs: int = 1, raw: bool = False) -> int:
    validate_cells(spec.cells)
    settings = {
        "random_walks": spec.campaigns.random_walks,
        "adaptive_walks": spec.campaigns.adaptive_walks,
        "neutrality": spec.campaigns.neutrality,
    }
    if all(v is None for v in settings.values()):
        # analyze with no explicit campaign settings runs everything at defaults
        settings = {"random_walks": {}, "adaptive_walks": {}, "neutrality": {}}
    raw_dir = str(out_dir / "raw") if raw else None
    units = []
    for n, k, b in spec.cells:
        for idx in range(spec.instances):
            path = landscape_path(out_dir, n, k, b, idx)
            if not path.exists():
                print(f"analyze: missing landscape file {path}; run gen first", file=sys.stderr)
                return 2
            units.append((str(path), n, k, b, idx, spec.seed, settings, raw_dir))

    rows: list[dict] = []
    failures: dict[tuple[int, int, int], list[str]] = {}
    results = _map_units_collect(_analyze_unit, units, jobs, failures)
    rows.extend(results)

    fieldnames = _analysis_fieldnames(settings)
    header = provenance_lines(spec, "analyze")
    write_csv(out_dir / "analysis_instances.csv", header, fieldnames, rows)

    summary = _aggregate_rows(rows, fieldnames, spec)
    summary_fields = ["n", "k", "b", "instances_ok", "instances_failed"] + [
        f for f in fieldnames if f not in ("n", "k", "b", "instance_seed")
    ]
    for row in summary:
        cell = (row["n"], row["k"], row["b"])
        row["instances_failed"] = len(failures.get(cell, []))
    write_csv(out_dir / "analysis_summary.csv", header, summary_fields, summary)
    print(f"analyze: wrote {out_dir / 'analysis_instances.csv'} and analysis_summary.csv "
          f"({len(rows)} instance rows)")
    return _report_failures("analyze", spec, failures)


def _map_units_collect(fn, units, jobs, failures) -> list[dict]:
    out = []
    if jobs <= 1 or len(units) <= 1:
        for u in units:
            try:
                out.append(fn(u))
            except Exception as exc:  # campaign failure must not abort siblings
                cell = (u[1], u[2], u[3])
                failures.setdefault(cell, []).append(f"instance {u[4]}: {exc}")
        return out
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [(u, pool.submit(fn, u)) for u in units]
        for u, fut in futures:
            try:
                out.append(fut.result())
            except Exception as exc:
                cell = (u[1], u[2], u[3])
                failures.setdefault(cell, []).append(f"instance {u[4]}: {exc}")
    return out


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


def _aggregate_rows(rows, fieldnames, spec) -> list[dict]:
    metric_fields = [f for f in fieldnames if f not in ("n", "k", "b", "instance_seed")]
    out = []
    for n, k, b in spec.cells:
        cell_rows = [r for r in rows if (r["n"], r["k"], r["b"]) == (n, k, b)]
        agg: dict = {"n": n, "k": k, "b": b, "instances_ok": len(cell_rows)}
        for f in metric_fields:
            vals = [r[f] for r in cell_rows if f in r]
            agg[f] = float(np.mean(vals)) if vals else float("nan")
        out.append(agg)
    return out


# ---------------------------------------------------------------------------
# evolve


def _evolve_unit(args) -> dict:
    path_str, n, k, b, idx, master_seed, ea_cfg, want_traces = args
    ls = landscapes.load_landscape(path_str)
    cfg = ea.EaConfig(**ea_cfg)
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
    return {"cell": (n, k, b), "rows": rows, "traces": traces}


def cmd_evolve(spec: ExperimentSpec, out_dir: Path, jobs: int = 1, traces: bool = False) -> int:
    validate_cells(spec.cells)
    ea_cfg = dict(spec.ea)
    ea_cfg.pop("seed", None)  # run seeds derive from the master seed
    units = []
    for n, k, b in spec.cells:
        for idx in range(spec.instances):
            path = landscape_path(out_dir, n, k, b, idx)
            if not path.exists():
                print(f"evolve: missing landscape file {path}; run gen first", file=sys.stderr)
                return 2
            units.append((str(path), n, k, b, idx, spec.seed, ea_cfg, traces))

    failures: dict[tuple[int, int, int], list[str]] = {}
    results = _map_units_collect(_evolve_unit, units, jobs, failures)

    run_rows = [row for res in results for row in res["rows"]]
    header = provenance_lines(spec, "evolve")
    run_fields = ["n", "k", "b", "instance_seed", "run_index", "success",
                  "generations_to_success", "final_blocks"]
    write_csv(out_dir / "ea_runs.csv", header, run_fields, run_rows)

    summary = []
    for n, k, b in spec.cells:
        cell_rows = [r for r in run_rows if (r["n"], r["k"], r["b"]) == (n, k, b)]
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

    if traces:
        trace_rows = [row for res in results for row in res["traces"]]
        trace_fields = ["n", "k", "b", "instance_seed", "run_index", "generation",
                        "best_fitness", "best_blocks"]
        write_csv(out_dir / "ea_traces.csv", header, trace_fields, trace_rows)

    print(f"evolve: wrote {out_dir / 'ea_runs.csv'} and ea_summary.csv "
          f"({len(run_rows)} run rows)")
    return _report_failures("evolve", spec, failures)


# ---------------------------------------------------------------------------
# presets


def build_preset(name: str, scale: float, seed: int) -> ExperimentSpec:
    if name == "table1":
        spec = ExperimentSpec(
            command="analyze",
            cells=[(8, 4, b) for b in (2, 3, 4)],
            instances=10, seed=seed,
            campaigns=CampaignSettings(neutrality={"walks": 2000, "length": 20}),
        )
    elif name in ("fig1", "fig3"):
        spec = ExperimentSpec(
            command="analyze",
            cells=[(10, k, b) for k in range(10) for b in range(1, 6)],
            instances=10, seed=seed,
            campaigns=CampaignSettings(
                random_walks={"walks": 20000, "length": 35, "s_max": 20}),
        )
    elif name == "fig5":
        spec = ExperimentSpec(
            command="analyze",
            cells=[(10, k, b) for k in range(10) for b in range(1, 6)],
            instances=10, seed=seed,
            campaigns=CampaignSettings(
                adaptive_walks={"walks": 2000, "lambda_max": 50}),
        )
    elif name == "fig6":
        spec = ExperimentSpec(
            command="evolve",
            cells=[(8, k, b) for k in range(0, 5) for b in range(2, 6)],
            instances=10, seed=seed, ea={},
        )
    elif name == "fig7":
        spec = ExperimentSpec(
            command="evolve",
            cells=[(10, k, 4) for k in range(0, 6)],
            instances=10, seed=seed, ea={"stop_on_success": False},
        )
    elif name == "fig8":
        spec = ExperimentSpec(
            command="evolve",
            cells=[(16, k, b) for k in range(0, 9) for b in range(2, 6)],
            instances=10, seed=seed, ea={},
        )
    elif name == "corr-study":
        cells = [(n, k, b) for n in (8, 10, 16)
                 for k in range(0, n // 2 + 1) for b in range(2, 6)]
        spec = ExperimentSpec(
            command="evolve", cells=cells, instances=10, seed=seed,
            campaigns=CampaignSettings(
                random_walks={"walks": 20000, "length": 35, "s_max": 20},
                adaptive_walks={"walks": 2000, "lambda_max": 50},
            ),
            ea={},
        )
    else:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return apply_scale(spec, scale)


def _read_summary(path: Path) -> list[dict]:
    rows = []
    with open(path) as fh:
        body = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(body):
        parsed = {}
        for key, val in row.items():
            try:
                parsed[key] = int(val)
            except ValueError:
                try:
                    parsed[key] = float(val)
                except ValueError:
                    parsed[key] = val
        rows.append(parsed)
    return rows


def cmd_reproduce(name: str, out_dir: Path, seed: int, scale: float, jobs: int) -> int:
    if name not in PRESET_NAMES:
        print(f"reproduce: unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}",
              file=sys.stderr)
        return 2
    spec = build_preset(name, scale, seed)
    rc = cmd_gen(spec, out_dir, jobs)
    if rc:
        return rc
    if name == "corr-study":
        return _reproduce_corr_study(spec, out_dir, jobs)
    if spec.command == "analyze":
        rc = cmd_analyze(spec, out_dir, jobs)
        if rc:
            return rc
        summary = _read_summary(out_dir / "analysis_summary.csv")
        if name == "table1":
            _report_table1(summary)
        elif name == "fig1":
            _report_tau(summary)
        elif name == "fig3":
            _report_rho(summary)
        elif name == "fig5":
            _report_adaptive(summary)
        return 0
    rc = cmd_evolve(spec, out_dir, jobs, traces=(name == "fig7"))
    if rc:
        return rc
    summary = _read_summary(out_dir / "ea_summary.csv")
    if name == "fig6":
        _report_success_rate(summary)
    elif name == "fig7":
        _report_block_traces(out_dir)
    elif name == "fig8":
        _report_mean_blocks(summary)
    return 0


def _report_table1(summary) -> None:
    print("neutral-neighbor proportions, percent (observed | reference), n=8 k=4:")
    for row in sorted(summary, key=lambda r: r["b"]):
        ref = REFERENCE_NEUTRALITY.get(row["b"])
        obs = (100 * row["frac_lower"], 100 * row["frac_equal"], 100 * row["frac_higher"])
        line = (f"  b={row['b']}: lower/equal/higher = "
                f"{obs[0]:.1f}/{obs[1]:.1f}/{obs[2]:.1f}")
        if ref:
            line += f" | {ref[0]}/{ref[1]}/{ref[2]}"
        print(line)


def _report_tau(summary) -> None:
    print("mean correlation length tau by (k, b), n=10"
          " (reference trend: decreasing in k, flatter for larger b):")
    bs = sorted({r["b"] for r in summary})
    for b in bs:
        vals = [(r["k"], r["tau"]) for r in summary if r["b"] == b]
        txt = " ".join(f"k={k}:{tau:.2f}" for k, tau in sorted(vals))
        print(f"  b={b}: {txt}")


def _report_rho(summary) -> None:
    print("autocorrelation rho(s), s=1..5 shown, n=10:")
    for row in sorted(summary, key=lambda r: (r["b"], r["k"])):
        vals = " ".join(f"{row[f'rho_{s}']:.3f}" for s in range(1, 6))
        print(f"  k={row['k']} b={row['b']}: {vals}")


def _report_adaptive(summary) -> None:
    print("adaptive walks, n=10 (reference trends: length decreasing in k for small b;"
          " optima fitness decreasing in b):")
    for row in sorted(summary, key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: mean_length={row['mean_walk_length']:.2f} "
              f"optima_fitness={row['optima_fitness_mean']:.4f}")


def _report_success_rate(summary) -> None:
    print("EA success rate by (k, b), n=8 (reference trend: decreasing in k,"
          " steeper for larger b):")
    for row in sorted(summary, key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: success_rate={row['success_rate']:.3f}")


def _report_mean_blocks(summary) -> None:
    print("EA mean blocks of best individual, n=16 (reference trend: decreasing"
          " as k or b increases):")
    for row in sorted(summary, key=lambda r: (r["b"], r["k"])):
        print(f"  k={row['k']} b={row['b']}: mean_final_blocks={row['mean_final_blocks']:.2f}")


def _report_block_traces(out_dir: Path) -> None:
    rows = _read_summary(out_dir / "ea_traces.csv")
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


def _reproduce_corr_study(spec: ExperimentSpec, out_dir: Path, jobs: int) -> int:
    rc = cmd_analyze(spec, out_dir, jobs)
    if rc:
        return rc
    rc = cmd_evolve(spec, out_dir, jobs)
    if rc:
        return rc
    analysis = {(r["n"], r["k"], r["b"]): r
                for r in _read_summary(out_dir / "analysis_summary.csv")}
    ea_rows = {(r["n"], r["k"], r["b"]): r
               for r in _read_summary(out_dir / "ea_summary.csv")}
    lengths, taus, blocks_l, blocks_t = [], [], [], []
    for cell, arow in analysis.items():
        erow = ea_rows.get(cell)
        if erow is None:
            continue
        if not np.isnan(arow["mean_walk_length"]):
            lengths.append(arow["mean_walk_length"])
            blocks_l.append(erow["mean_final_blocks"])
        if not np.isnan(arow["tau"]):
            taus.append(arow["tau"])
            blocks_t.append(erow["mean_final_blocks"])
    print("correlation study (no pass threshold applied):")
    if len(lengths) >= 2 and np.std(lengths) > 0 and np.std(blocks_l) > 0:
        r = float(np.corrcoef(lengths, blocks_l)[0, 1])
        print(f"  corr(adaptive walk length, mean blocks found) = {r:.3f}"
              f" over {len(lengths)} cells")
    else:
        print(f"  corr(adaptive walk length, mean blocks found): undefined"
              f" over {len(lengths)} cells")
    if len(taus) >= 2 and np.std(taus) > 0 and np.std(blocks_t) > 0:
        r = float(np.corrcoef(taus, blocks_t)[0, 1])
        print(f"  corr(random-walk correlation length, mean blocks found) = {r:.3f}"
              f" over {len(taus)} cells")
    else:
        print(f"  corr(random-walk correlation length, mean blocks found): undefined"
              f" over {len(taus)} cells")
    return 0


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
        p.add_argument("--spec", type=str, default=None, help="experiment spec JSON")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--scale", type=float, default=1.0,
                       help="multiply walk/run/instance counts (e.g. 0.1 for smoke tests)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel worker processes")
        p.add_argument("--preset", type=str, default=None,
                       help=f"built-in preset: {', '.join(PRESET_NAMES)}")
        if cmd == "evolve":
            p.add_argument("--traces", action="store_true",
                           help="also write per-generation traces")
        if cmd == "analyze":
            p.add_argument("--raw", action="store_true",
                           help="also write raw walk logs as JSON lines")
    args = parser.parse_args(argv)

    try:
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
            return cmd_analyze(spec, out_dir, args.jobs, raw=getattr(args, "raw", False))
        return cmd_evolve(spec, out_dir, args.jobs, traces=getattr(args, "traces", False))
    except SpecError as exc:
        print(f"{args.cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
