"""Span recorder for the traced benchmark run.

The recorder wraps epiroad's functions from outside the package: each
wrapper is installed on the binding its caller looks the name up through
(``landscapes.block_bits`` and ``genotype.block_bits`` are two bindings of
one function, ``analysis.random_neighbor`` is another module's copy, and
``ErLandscape.evaluate`` is a method). Every wrapped call appends one span
(name, start, end, parent span, unit id) to in-memory arrays; count-only
wrappers bump a counter instead, for functions called too often to time.
Self time is a span's duration minus the time its child spans cover. Spans
are timed in raw process CPU time (the end-to-end metrics are rescaled; see
``speed.py``), so hypervisor steal does not count as work of whatever layer
was running.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# Layers in call-graph order; a span's layer is the prefix of its name.
LAYERS = ("seeds", "genotype", "nk", "landscapes", "analysis", "ea", "cli")


def _rows_out(counters, args, out):
    counters["genotype.neighbor_matrix.rows"] += out.shape[0]


def _cells_arg(counters, args, out):
    counters["genotype.block_bits_batch.cells"] += args[0].size


def _rows_arg(counters, args, out):
    counters["landscapes.evaluate_rows.rows"] += args[1].shape[0]


def _file_bytes(counters, args, out):
    counters["landscapes.file_bytes"] += os.path.getsize(args[1])


def _output_bytes(counters, args, out):
    counters["cli.output_bytes"] += os.path.getsize(args[0])


def _moves(counters, args, out):
    counters["analysis.adaptive_walk.moves"] += out[2]


def _generations(counters, args, out):
    cfg = args[0]
    stopped = out.success and cfg.stop_on_success
    counters["ea.generations"] += out.generations_to_success if stopped else cfg.generations


# (span name, bindings as (module, attribute) or (module, class, method), counter)
SPANS = (
    ("seeds.make_rng", [("nk", "make_rng"), ("analysis", "make_rng"), ("ea", "make_rng")], None),
    ("seeds.derive_seed", [("ea", "derive_seed"), ("cli", "derive_seed")], None),
    ("genotype.random_neighbor", [("analysis", "random_neighbor")], None),
    ("genotype.block_bits", [("landscapes", "block_bits"), ("genotype", "block_bits")], None),
    ("genotype.block_count", [("ea", "block_count")], None),
    ("genotype.neighbor_matrix", [("analysis", "neighbor_matrix")], _rows_out),
    ("genotype.block_bits_batch", [("landscapes", "block_bits_batch")], _cells_arg),
    ("genotype.random_genotype", [("analysis", "random_genotype"), ("ea", "random_genotype")],
     None),
    ("genotype.row_to_genotype", [("analysis", "row_to_genotype")], None),
    ("nk.generate", [("nk", "generate")], None),
    ("nk.normalize_to_one", [("nk", "normalize_to_one")], None),
    ("nk.exhaustive_optimum", [("nk", "exhaustive_optimum")], None),
    ("nk.all_fitness_values", [("nk", "all_fitness_values")], None),
    ("landscapes.evaluate", [("landscapes", "ErLandscape", "evaluate")], None),
    ("landscapes.evaluate_rows", [("landscapes", "ErLandscape", "evaluate_rows")], _rows_arg),
    ("landscapes.er_build", [("landscapes", "er_build")], None),
    ("landscapes.save_landscape", [("landscapes", "save_landscape")], _file_bytes),
    ("landscapes.load_landscape", [("landscapes", "load_landscape")], None),
    ("analysis.neighbor_class_counts", [("analysis", "neighbor_class_counts")], None),
    ("analysis.random_walk", [("analysis", "random_walk")], None),
    ("analysis.autocorrelation", [("analysis", "autocorrelation")], None),
    ("analysis.adaptive_walk", [("analysis", "adaptive_walk")], _moves),
    ("analysis.evaluate_rows", [("analysis", "evaluate_rows")], None),
    ("analysis.local_optima_stats", [("analysis", "local_optima_stats")], None),
    ("analysis.neutrality_scan", [("cli", "neutrality_scan")], None),
    ("analysis.run_random_walk_campaign", [("cli", "run_random_walk_campaign")], None),
    ("analysis.run_adaptive_walk_campaign", [("cli", "run_adaptive_walk_campaign")], None),
    ("ea.landscape_seed", [("ea", "landscape_seed")], None),
    ("ea.run_seed", [("ea", "run_seed")], None),
    ("ea.run_instance", [("ea", "run_instance")], None),
    ("ea.run", [("ea", "run")], _generations),
    ("ea.init_population", [("ea", "init_population")], None),
    ("ea.tournament_select", [("ea", "tournament_select")], None),
    ("ea.one_point_crossover", [("ea", "one_point_crossover")], None),
    ("ea.mutate", [("ea", "mutate")], None),
    ("cli.main", [("cli", "main")], None),
    ("cli.cmd_gen", [("cli", "cmd_gen")], None),
    ("cli.cmd_analyze", [("cli", "cmd_analyze")], None),
    ("cli.cmd_evolve", [("cli", "cmd_evolve")], None),
    ("cli.write_csv", [("cli", "write_csv")], _output_bytes),
)

# A unit span starts a new unit id: one landscape built, analyzed or evolved.
UNIT_SPAN = ("cli.unit", [("cli", "_gen_unit"), ("cli", "_analyze_unit"), ("cli", "_evolve_unit")],
             None)

COUNTERS = (
    "genotype.neighbor_matrix.rows", "genotype.block_bits_batch.cells",
    "landscapes.evaluate_rows.rows", "landscapes.file_bytes", "cli.output_bytes",
    "analysis.adaptive_walk.moves", "ea.generations", "landscapes.bv_value.calls",
    "nk.passes",
)


class Recorder:
    """Installs the wrappers, keeps spans in memory and aggregates them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.units = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.unit = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch(self, binding, make) -> None:
        """Replace the binding (module, [class,] attribute) by make(current value)."""
        owner = self.modules[binding[0]]
        for attr in binding[1:-1]:
            owner = getattr(owner, attr)
        fn = getattr(owner, binding[-1])
        self._saved.append((owner, binding[-1], fn))
        setattr(owner, binding[-1], make(fn))

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # one wrapper per function, however many bindings

        for name, bindings, counter in SPANS + (UNIT_SPAN,):
            def make(fn, name=name, counter=counter):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._span(name, fn, counter)
                return wrappers[id(fn)]

            for binding in bindings:
                self._patch(binding, make)
        # counted, not timed: called several times per classified genotype
        self._patch(("landscapes", "ErLandscape", "bv_value"), self._count_bv_value)
        self._patch(("nk", "_chunk_values"), self._passes)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, units = self.name_ids, self.parents, self.units
        starts, ends, stack, counters = self.starts, self.ends, self.stack, self.counters
        clock = time.process_time
        is_unit = name == UNIT_SPAN[0]

        def wrapper(*args, **kwargs):
            if is_unit:
                self.unit += 1
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            units.append(self.unit)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counters, args, out)
            return out

        return wrapper

    def _count_bv_value(self, fn):
        counters = self.counters

        def wrapper(landscape, bits):
            counters["landscapes.bv_value.calls"] += 1
            return fn(landscape, bits)

        return wrapper

    def _passes(self, fn):
        counters = self.counters

        def wrapper(inst, lo, hi):
            counters["nk.passes"] += (hi - lo) / (1 << inst.n)
            return fn(inst, lo, hi)

        return wrapper

    # -- aggregation --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_ids, np.int32),
            "parent": np.frombuffer(self.parents, np.int64),
            "unit": np.frombuffer(self.units, np.int32),
            "start": np.frombuffer(self.starts, np.float64),
            "end": np.frombuffer(self.ends, np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_span(self) -> dict[str, dict]:
        """{span name: {"calls", "self_s"}} summed over every span of that name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        self_s = np.bincount(a["name"], weights=own, minlength=size)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(self_s[i])
        return out


def _ratio(num: float, den: float) -> float:
    # an idle layer reports 0 rather than an undefined ratio
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by the benchmark's metric names."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    for name in spans:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in spans.items()
                                   if k.split(".")[0] == layer)
    m["trace.covered_s"] = sum(v["self_s"] for v in spans.values())
    m.update({k: v for k, v in counters.items() if k != "nk.passes"})
    m["nk.passes_per_landscape"] = _ratio(counters["nk.passes"], calls("landscapes.er_build"))
    m["analysis.lookups_per_genotype"] = _ratio(
        counters["landscapes.bv_value.calls"], calls("analysis.neighbor_class_counts"))
    m["analysis.adaptive_walk.rows_per_move"] = _ratio(
        counters["genotype.neighbor_matrix.rows"],
        counters["analysis.adaptive_walk.moves"] + calls("analysis.adaptive_walk"))
    return m
