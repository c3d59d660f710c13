import json
import os

import numpy as np
import pytest

from epiroad.cli import main


def write_spec(path, **kw):
    data = {
        "command": kw.pop("command", "gen"),
        "grid": kw.pop("grid", {"n": [6], "k": [0, 2], "b": [2]}),
        "instances": kw.pop("instances", 2),
        "seed": kw.pop("seed", 42),
    }
    data.update(kw)
    path.write_text(json.dumps(data))
    return path


def csv_body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def run_cli(args):
    return main([a if isinstance(a, str) else str(a) for a in args])


def test_gen_writes_expected_files(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    files = sorted((out / "landscapes").glob("*.json"))
    assert len(files) == 2 * 2  # cells x instances
    doc = json.loads(files[0].read_text())
    assert doc["format"] == "epiroad-landscape"
    assert "provenance" in doc and doc["provenance"]["master_seed"] == 42


def test_gen_regeneration_is_byte_identical(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["gen", "--spec", spec, "--out", out1, "--jobs", 1])
    run_cli(["gen", "--spec", spec, "--out", out2, "--jobs", 1])
    for f1 in sorted((out1 / "landscapes").glob("*.json")):
        f2 = out2 / "landscapes" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_gen_rejects_k_of_n_before_writing(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", grid={"n": [6], "k": [0, 6], "b": [2]})
    out = tmp_path / "out"
    assert run_cli(["gen", "--spec", spec, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "k=6" in err and "n=6" in err
    assert not (out / "landscapes").exists()


def test_gen_rejects_oversize_n(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", grid={"n": [25], "k": [0], "b": [2]})
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "o"]) == 2
    assert "n=25" in capsys.readouterr().err


ANALYZE_SPEC = dict(
    command="analyze",
    random_walks={"walks": 20, "length": 10, "s_max": 3},
    adaptive_walks={"walks": 10, "lambda_max": 50},
    neutrality={"walks": 10, "length": 5},
)


def test_analyze_writes_instance_and_summary_tables(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out])
    assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    inst_body = csv_body(out / "analysis_instances.csv")
    header = inst_body[0].split(",")
    assert header[:4] == ["n", "k", "b", "instance_seed"]
    assert "tau" in header and "frac_equal" in header and "mean_walk_length" in header
    assert len(inst_body) == 1 + 4  # header + cells x instances
    sum_body = csv_body(out / "analysis_summary.csv")
    assert len(sum_body) == 1 + 2  # header + cells


def test_analyze_missing_landscapes_is_a_named_error(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    assert run_cli(["analyze", "--spec", spec, "--out", tmp_path / "nowhere"]) == 2
    assert "missing landscape file" in capsys.readouterr().err


def test_analyze_empty_grid_writes_header_only(tmp_path):
    spec = write_spec(tmp_path / "spec.json", command="analyze",
                      grid={"n": [], "k": [], "b": []}, **{k: v for k, v in ANALYZE_SPEC.items()
                                                           if k != "command"})
    out = tmp_path / "out"
    assert run_cli(["analyze", "--spec", spec, "--out", out]) == 0
    assert len(csv_body(out / "analysis_instances.csv")) == 1


def test_analyze_rerun_bodies_identical(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out])
    run_cli(["analyze", "--spec", spec, "--out", out])
    body1 = csv_body(out / "analysis_instances.csv")
    run_cli(["analyze", "--spec", spec, "--out", out])
    assert csv_body(out / "analysis_instances.csv") == body1


EVOLVE_SPEC = dict(
    command="evolve",
    ea={"population": 30, "generations": 10, "runs": 2,
        "max_creation_size": 10, "max_program_size": 100},
)


def test_evolve_writes_runs_and_summary(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **EVOLVE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out])
    assert run_cli(["evolve", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    runs = csv_body(out / "ea_runs.csv")
    assert runs[0].split(",") == ["n", "k", "b", "instance_seed", "run_index",
                                  "success", "generations_to_success", "final_blocks"]
    assert len(runs) == 1 + 2 * 2 * 2  # header + cells x instances x runs
    summary = csv_body(out / "ea_summary.csv")
    assert len(summary) == 1 + 2
    rate = float(summary[1].split(",")[6])
    assert 0.0 <= rate <= 1.0


def test_evolve_traces_flag(tmp_path):
    spec = write_spec(tmp_path / "spec.json", grid={"n": [6], "k": [0], "b": [2]},
                      instances=1, **EVOLVE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out])
    run_cli(["evolve", "--spec", spec, "--out", out, "--traces"])
    traces = csv_body(out / "ea_traces.csv")
    assert traces[0].split(",")[-2:] == ["best_fitness", "best_blocks"]
    assert len(traces) == 1 + 2 * 11  # header + runs x (generations + 1)


def test_jobs_do_not_change_results(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_cli(["gen", "--spec", spec, "--out", out1, "--jobs", 1])
    run_cli(["gen", "--spec", spec, "--out", out2, "--jobs", 2])
    for f1 in sorted((out1 / "landscapes").glob("*.json")):
        assert f1.read_bytes() == (out2 / "landscapes" / f1.name).read_bytes()
    run_cli(["analyze", "--spec", spec, "--out", out1, "--jobs", 1])
    run_cli(["analyze", "--spec", spec, "--out", out2, "--jobs", 2])
    assert csv_body(out1 / "analysis_instances.csv") == csv_body(out2 / "analysis_instances.csv")


def test_env_seed_overrides_spec(tmp_path, monkeypatch):
    spec = write_spec(tmp_path / "spec.json", seed=1)
    out_env, out_seeded = tmp_path / "env", tmp_path / "seeded"
    monkeypatch.setenv("EPIROAD_SEED", "99")
    run_cli(["gen", "--spec", spec, "--out", out_env])
    monkeypatch.delenv("EPIROAD_SEED")
    spec99 = write_spec(tmp_path / "spec99.json", seed=99)
    run_cli(["gen", "--spec", spec99, "--out", out_seeded])
    for f1 in sorted((out_env / "landscapes").glob("*.json")):
        d1 = json.loads(f1.read_text())
        d2 = json.loads((out_seeded / "landscapes" / f1.name).read_text())
        assert d1["nk"] == d2["nk"]


def test_flag_seed_beats_env(tmp_path, monkeypatch):
    spec = write_spec(tmp_path / "spec.json", seed=1)
    out = tmp_path / "out"
    monkeypatch.setenv("EPIROAD_SEED", "99")
    run_cli(["gen", "--spec", spec, "--out", out, "--seed", 7])
    doc = json.loads(next(iter(sorted((out / "landscapes").glob("*.json")))).read_text())
    assert doc["provenance"]["master_seed"] == 7


@pytest.mark.parametrize("argv", [["gen"], ["reproduce", "--preset", "table1"]])
@pytest.mark.parametrize("flag, env", [("-1", None), (None, "abc"), (None, "-5"), (None, "1.5"),
                                       (str(1 << 64), None)])
def test_bad_seed_from_flag_or_env_exits_2(tmp_path, capsys, monkeypatch, argv, flag, env):
    spec = write_spec(tmp_path / "spec.json")
    if env is not None:
        monkeypatch.setenv("EPIROAD_SEED", env)
    args = argv + ["--spec", spec, "--out", tmp_path / "out", "--jobs", 1]
    assert run_cli(args + (["--seed", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert "seed must be an integer in [0, 2**64)" in err and (flag or env) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-3, "x", 1.5, True, None])
def test_bad_seed_in_spec_file_exits_2(tmp_path, capsys, seed):
    spec = write_spec(tmp_path / "spec.json", seed=seed)
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert f"spec file: seed must be an integer in [0, 2**64), got {seed!r}" in \
        capsys.readouterr().err


def test_reproduce_unknown_preset_lists_options(capsys):
    assert run_cli(["reproduce", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "table1" in err and "corr-study" in err and "fig7" in err


def test_reproduce_requires_preset(capsys):
    assert run_cli(["reproduce"]) == 2
    assert "--preset" in capsys.readouterr().err


def test_reproduce_table1_smoke(tmp_path, capsys):
    assert run_cli(["reproduce", "--preset", "table1", "--scale", 0.005,
                    "--out", tmp_path / "t1", "--jobs", 1]) == 0
    out = capsys.readouterr().out
    assert "85.8" in out  # reference values printed next to observations
    assert (tmp_path / "t1" / "analysis_summary.csv").exists()


def test_reproduce_corr_study_smoke(tmp_path, capsys, monkeypatch):
    # shrink the grid through a tiny scale; the report must print both
    # correlation coefficients with their cell counts, no pass/fail
    from epiroad import cli as cli_mod

    def tiny_preset(name, scale, seed):
        spec = cli_mod.ExperimentSpec(
            command="evolve",
            cells=[(6, k, bb) for k in (0, 2) for bb in (2, 3)],
            instances=1, seed=seed,
            campaigns=cli_mod.CampaignSettings(
                random_walks={"walks": 30, "length": 12, "s_max": 5},
                adaptive_walks={"walks": 20, "lambda_max": 50},
            ),
            ea={"population": 30, "generations": 15, "runs": 2,
                "max_creation_size": 10, "max_program_size": 100},
        )
        return spec

    monkeypatch.setattr(cli_mod, "build_preset", tiny_preset)
    assert run_cli(["reproduce", "--preset", "corr-study",
                    "--out", tmp_path / "cs", "--jobs", 1]) == 0
    out = capsys.readouterr().out
    assert "corr(adaptive walk length, mean blocks found)" in out
    assert "corr(random-walk correlation length, mean blocks found)" in out
    assert "cells" in out
    assert "PASS" not in out and "FAIL" not in out


def test_fig1_preset_grid():
    from epiroad.cli import build_preset

    spec = build_preset("fig1", 1.0, 0)
    assert {c[0] for c in spec.cells} == {10}
    assert {c[2] for c in spec.cells} == {1, 2, 3, 4, 5}
    assert spec.campaigns.random_walks["walks"] == 20000
    scaled = build_preset("fig1", 0.01, 0)
    assert scaled.campaigns.random_walks["walks"] == 200
    assert scaled.instances == 1


def test_fig6_preset_matches_reported_grid():
    from epiroad.cli import build_preset

    spec = build_preset("fig6", 1.0, 0)
    assert {c[0] for c in spec.cells} == {8}
    assert {c[1] for c in spec.cells} == {0, 1, 2, 3, 4}
    assert {c[2] for c in spec.cells} == {2, 3, 4, 5}
