"""The benchmark recorder's contract with the package, checked in-process at tiny sizes.

``benchmarks/recorder.py`` wraps functions by their bindings and reads their
arguments and results (``ea.run``'s config is its first argument). It is loaded
here by path, as the benchmark worker loads it, so a change to a wrapped
signature or binding fails this test rather than only the benchmark smoke test.
"""

import importlib.util
import json
from pathlib import Path

from epiroad import analysis, cli, ea, genotype, landscapes, nk, seeds

RECORDER = Path(__file__).resolve().parent.parent / "benchmarks" / "recorder.py"

SPEC = {
    "grid": {"n": [6], "k": [2], "b": [2]}, "instances": 1, "seed": 3,
    "random_walks": {"walks": 4, "length": 5, "s_max": 2},
    "adaptive_walks": {"walks": 2, "lambda_max": 20},
    "neutrality": {"walks": 2, "length": 3},
    "ea": {"population": 20, "generations": 3, "runs": 2, "max_creation_size": 10,
           "max_program_size": 20, "stop_on_success": False},
}


def load_recorder():
    spec = importlib.util.spec_from_file_location("recorder", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_traces_gen_analyze_and_evolve_and_restores_every_binding(tmp_path):
    modules = {"seeds": seeds, "genotype": genotype, "nk": nk, "landscapes": landscapes,
               "analysis": analysis, "ea": ea, "cli": cli}
    recorder = load_recorder().Recorder(modules)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    recorder.install()
    saved = list(recorder._saved)  # (owner, attribute, original) of every patched binding
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in saved)
        codes = [cli.main([command, "--spec", str(path), "--out", str(tmp_path / "out"),
                           "--jobs", "1"]) for command in ("gen", "analyze", "evolve")]
    finally:
        recorder.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    assert codes == [0, 0, 0]
    assert recorder.counters["ea.generations"] > 0
    assert recorder.counters["nk.passes"] > 0
    spans = recorder.per_span()
    for name in ("analysis.run_random_walk_campaign", "analysis.run_adaptive_walk_campaign",
                 "analysis.neutrality_scan", "ea.run", "cli.cmd_gen", "cli.cmd_analyze",
                 "cli.cmd_evolve"):
        assert spans[name]["calls"] > 0, name
