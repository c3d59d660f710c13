import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from epiroad import ea, landscapes, nk
from epiroad.analysis import (
    AdaptiveWalkCampaign,
    NeutralityCampaign,
    RandomWalkCampaign,
    neutrality_scan,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from epiroad.cli import load_spec, main, validate_cells
from epiroad.ea import EaConfig


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


def with_spec(argv, spec):
    """argv with ``--spec spec``, except for reproduce, which runs presets only."""
    return argv if argv[0] == "reproduce" else argv + ["--spec", spec]


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


# sha256 of the analysis_instances.csv body below the '#' lines for ANALYZE_SPEC,
# at stream format 5 (one stream per walk campaign). At format 2 it was
# e307e9ecf6331c798c22277c448ec0f466009f4951270ee31909b412b4b7d6bb, at format 3
# e8d989209803b7602d1dfb0dc2612a7f6c2ab1fb851d774a174d9a7166ac1bc5 and at format 4
# b24a180e25b301d9706cc201bd2b26326923a36e701f6e9188eaf9d2aad10333; from format 3
# to 4 only the frac_* columns changed, from 4 to 5 every metric column.
ANALYSIS_INSTANCES_SHA256 = "78fdb966c1bcd1e8b924284711c9ac6ddc1a19632b2c4fbccab9001b0c80afc1"


def csv_bytes_body(path):
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"#"))


def test_analyze_instances_body_is_pinned(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    bodies = []
    for jobs in (1, 2):
        out = tmp_path / f"o{jobs}"
        run_cli(["gen", "--spec", spec, "--out", out, "--jobs", jobs])
        assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", jobs]) == 0
        bodies.append([csv_bytes_body(out / name)
                       for name in ("analysis_instances.csv", "analysis_summary.csv")])
    assert bodies[0] == bodies[1]
    assert hashlib.sha256(bodies[0][0]).hexdigest() == ANALYSIS_INSTANCES_SHA256


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
    args = with_spec(argv, spec) + ["--out", tmp_path / "out", "--jobs", 1]
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


@pytest.mark.parametrize("seed", ["18446744073709551615", 18446744073709551615, "0", 7])
def test_seed_in_spec_file_may_be_an_integer_string(tmp_path, seed):
    spec = write_spec(tmp_path / "spec.json", seed=seed, instances=1)
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out", "--jobs", 1]) == 0
    doc = json.loads(next((tmp_path / "out" / "landscapes").glob("*.json")).read_text())
    assert doc["provenance"]["master_seed"] == int(seed)


@pytest.mark.parametrize("text, message", [
    ("{not json", "cannot read spec file"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"grid": {"n": ["x"], "k": [0], "b": [2]}}', "grid values must be lists of integers"),
])
def test_unreadable_spec_file_exits_2(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, message", [
    ({"n": "16", "k": [0], "b": [1]}, "grid values must be lists of integers, got n: '16'"),
    ({"n": [6.9], "k": [0], "b": [2]}, "grid values must be lists of integers, got n: [6.9]"),
    ({"n": [6], "k": [True], "b": [2]}, "grid values must be lists of integers, got k: [True]"),
    ({"n": [6], "k": [0], "b": ["2"]}, "grid values must be lists of integers, got b: ['2']"),
    ({"n": [6], "k": [0], "b": 2}, "grid values must be lists of integers, got b: 2"),
    ({"n": [6], "k": [0], "b": [None]}, "grid values must be lists of integers, got b: [None]"),
    ({"n": [6], "k": [0]}, "grid is missing key 'b'"),
    ([6, 0, 2], "grid must be a JSON object, got [6, 0, 2]"),
    # a repeated value would run its cells twice and write their files twice
    ({"n": [6, 6], "k": [0], "b": [2]}, "grid values must not repeat, got n: [6, 6]"),
    ({"n": [6], "k": [0, 2, 0], "b": [2]}, "grid values must not repeat, got k: [0, 2, 0]"),
])
def test_bad_grid_in_spec_file_exits_2(tmp_path, capsys, grid, message):
    spec = write_spec(tmp_path / "spec.json", grid=grid)
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("instances", ["abc", 2.5, 0, True, None, "2", "10"])
def test_bad_instances_in_spec_file_exits_2(tmp_path, capsys, instances):
    spec = write_spec(tmp_path / "spec.json", instances=instances)
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert f"instances must be an integer >= 1, got {instances!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, settings", [
    ("neutrality", {"walks": 0}),
    ("neutrality", {"walks": 5, "length": -1}),
    ("random_walks", {"walks": 0, "length": 10, "s_max": 3}),
    ("random_walks", {"walks": 5, "length": -1, "s_max": 0}),
    ("adaptive_walks", {"walks": 0}),
    ("neutrality", {"walks": "many"}),
    ("adaptive_walks", {"walks": 1}),  # local-optima statistics need two walks
])
def test_bad_campaign_sizes_exit_2(tmp_path, capsys, section, settings):
    spec = write_spec(tmp_path / "spec.json", command="analyze", **{section: settings})
    assert run_cli(["analyze", "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"spec file: {section}:" in err and "Traceback" not in err


@pytest.mark.parametrize("section", ["ea", "random_walks", "adaptive_walks", "neutrality"])
@pytest.mark.parametrize("command", ["gen", "analyze", "evolve"])
def test_seed_inside_a_section_exits_2(tmp_path, capsys, command, section):
    # no command reads it, yet it would change spec_sha256
    spec = write_spec(tmp_path / "spec.json", command=command, **{section: {"seed": 5}})
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"spec file: {section}: seed is not read; every run and campaign seed derives " \
        "from the top-level seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [[], "x", 5, None])
@pytest.mark.parametrize("section", ["ea", "random_walks", "adaptive_walks", "neutrality"])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    spec = write_spec(tmp_path / "spec.json", **{section: value})
    assert run_cli(["gen", "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"gen: spec file: {section} must be a JSON object, got {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("argv", [["gen"], ["reproduce", "--preset", "table1"]])
def test_out_at_a_regular_file_exits_2(tmp_path, capsys, argv, below):
    spec = write_spec(tmp_path / "spec.json")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "sub" if below else blocker
    args = with_spec(argv, spec) + ["--out", out, "--jobs", 1, "--scale", 0.005]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]}: cannot create output directory {out / 'landscapes'}: " \
        f"{os.strerror(errno.ENOTDIR)}" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize("section, settings", [
    ("random_walks", {"walks": 5, "length": 3, "s_max": 1, "lambda_max": 0}),
    ("neutrality", {"walks": 5, "length": 3, "lambda_max": 0}),
    ("neutrality", {"walks": 5, "length": 0, "lambda_max": 0}),
])
@pytest.mark.parametrize("command", ["gen", "analyze"])
def test_campaign_cap_allowing_no_move_exits_2(tmp_path, capsys, command, section, settings):
    # every unit would fail at run time; the spec is refused before gen
    spec = write_spec(tmp_path / "spec.json", command="analyze", **{section: settings})
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{command}: spec file: {section}: the empty genotype has no feasible neighbor " \
        "under lambda_max=0" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gen_failure_is_reported_per_cell(tmp_path, capsys, monkeypatch):
    from epiroad import cli as cli_mod

    real_build = cli_mod.landscapes.er_build
    doomed = {cli_mod.ea.landscape_seed(42, 6, k, 2, i) for k, i in [(2, 1), (0, 0), (0, 1)]}

    def flaky_build(n, k, b, lambda_max, seed):
        if seed in doomed:
            raise RuntimeError("injected build failure")
        return real_build(n, k, b, lambda_max, seed=seed)

    monkeypatch.setattr(cli_mod.landscapes, "er_build", flaky_build)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    # cell k=0 loses both instances, so the run fails; k=2 keeps instance 0
    assert run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1]) == 1
    err = capsys.readouterr().err
    assert "gen: cell n=6 k=2 b=2 instance 1: injected build failure" in err
    assert "gen: cell n=6 k=0 b=2 failed entirely" in err
    assert "k=2 b=2 failed entirely" not in err
    assert [f.name for f in sorted((out / "landscapes").glob("*.json"))] == \
        ["n06_k02_b2_i00.json"]


def test_outputs_record_the_stream_format(tmp_path):
    spec = write_spec(tmp_path / "spec.json", **EVOLVE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1])
    doc = json.loads(next(iter(sorted((out / "landscapes").glob("*.json")))).read_text())
    assert doc["provenance"]["stream_format"] == 6
    run_cli(["evolve", "--spec", spec, "--out", out, "--jobs", 1])
    assert "# stream_format: 6" in (out / "ea_runs.csv").read_text().splitlines()


# sha256 of the ea_runs.csv body below the '#' lines, at stream format 6
EA_RUNS_SHA256 = "0f0edf3834b3c5ae53c45a37260180924b83930184845aa47a5dc01aaae06bd3"


def test_evolve_runs_body_is_pinned_and_independent_of_jobs(tmp_path):
    # pinned at stream format 6; a change to the EA's draws must bump the
    # format and re-pin
    spec = write_spec(tmp_path / "spec.json", **EVOLVE_SPEC)
    bodies = []
    for jobs in (1, 2):
        out = tmp_path / f"o{jobs}"
        run_cli(["gen", "--spec", spec, "--out", out, "--jobs", jobs])
        assert run_cli(["evolve", "--spec", spec, "--out", out, "--jobs", jobs]) == 0
        lines = (out / "ea_runs.csv").read_bytes().splitlines(keepends=True)
        bodies.append(b"".join(line for line in lines if not line.startswith(b"#")))
    assert bodies[0] == bodies[1]
    assert hashlib.sha256(bodies[0]).hexdigest() == EA_RUNS_SHA256


# sha256 of the ea_traces.csv body below the '#' lines for EVOLVE_SPEC, at stream format 6
EA_TRACES_SHA256 = "615b43ebafc5cbf2a2b45da80dea6e96493e80e0468f0e1d37951b0dfed9baff"


@pytest.mark.parametrize("jobs", [1, 2])
def test_evolve_traces_body_is_pinned(tmp_path, jobs):
    spec = write_spec(tmp_path / "spec.json", **EVOLVE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out, "--jobs", jobs])
    assert run_cli(["evolve", "--spec", spec, "--out", out, "--jobs", jobs, "--traces"]) == 0
    body = csv_bytes_body(out / "ea_traces.csv")
    assert hashlib.sha256(body).hexdigest() == EA_TRACES_SHA256


def test_evolve_traces_are_streamed_to_the_file(tmp_path, monkeypatch):
    import tracemalloc

    from epiroad import cli as cli_mod
    from epiroad import ea

    spec = cli_mod.load_spec(write_spec(tmp_path / "spec.json", grid={"n": [6], "k": [0], "b": [2]},
                                        instances=1, **EVOLVE_SPEC))
    out = tmp_path / "out"
    assert cli_mod.cmd_gen(spec, out) == 0
    generations = 20_000
    canned = [
        ea.RunResult(best_fitness_trace=[g / generations for g in range(generations + 1)],
                     best_blocks_trace=[g % 7 for g in range(generations + 1)], success=False)
        for _ in range(EVOLVE_SPEC["ea"]["runs"])]
    monkeypatch.setattr(cli_mod.ea, "run_instance", lambda *args: canned)
    tracemalloc.start()
    try:
        rc = cli_mod.cmd_evolve(spec, out, traces=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(canned) * (generations + 1)
    assert peak < 64 * rows, f"{peak / rows:.0f} bytes per trace row"
    assert rc == 0 and len(csv_body(out / "ea_traces.csv")) == 1 + rows


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command, extra", [("analyze", ANALYZE_SPEC), ("evolve", EVOLVE_SPEC)])
def test_missing_landscape_fails_only_its_unit(tmp_path, capsys, command, extra, jobs):
    spec = write_spec(tmp_path / "spec.json", **{**extra, "command": command})
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1])
    lost = out / "landscapes" / "n06_k02_b2_i01.json"
    lost.unlink()
    capsys.readouterr()
    # cell k=2 keeps instance 0, so the run succeeds without the lost file
    assert run_cli([command, "--spec", spec, "--out", out, "--jobs", jobs]) == 0
    err = capsys.readouterr().err
    assert f"{command}: cell n=6 k=2 b=2 instance 1: missing landscape file {lost}" in err
    assert "failed entirely" not in err
    csv_name = "analysis_instances.csv" if command == "analyze" else "ea_runs.csv"
    rows = csv_body(out / csv_name)[1:]
    runs = 1 if command == "analyze" else EVOLVE_SPEC["ea"]["runs"]
    assert len(rows) == 3 * runs
    assert sum(row.startswith("6,2,2,") for row in rows) == runs
    # losing both instances of a cell fails the cell, and the run
    (out / "landscapes" / "n06_k02_b2_i00.json").unlink()
    assert run_cli([command, "--spec", spec, "--out", out, "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "cell n=6 k=2 b=2 failed entirely" in err
    assert "k=0 b=2 failed entirely" not in err
    assert len(csv_body(out / csv_name)[1:]) == 2 * runs


@pytest.mark.parametrize("settings, message", [
    ({"ea": {"populaton": 10}}, "unexpected keyword argument 'populaton'"),
    ({"ea": {"population": "10"}}, "population must be int, got '10'"),
    ({"ea": {"mutation_rate": 2.0}}, "mutation_rate must lie in [0, 1]"),
    ({"ea": {"runs": 0}}, "runs must be >= 1, got 0"),
    ({"ea": [1, 2]}, "ea must be a JSON object"),
    ({"landscape_lambda_max": "abc"}, "landscape_lambda_max must be an integer >= 1, got 'abc'"),
    ({"landscape_lambda_max": 0}, "landscape_lambda_max must be an integer >= 1, got 0"),
    ({"landscape_lambda_max": 2.5}, "landscape_lambda_max must be an integer >= 1, got 2.5"),
    ({"landscape_lambda_max": True}, "landscape_lambda_max must be an integer >= 1, got True"),
    ({"ea": {"independent_mutation_gate": True}},
     "unexpected keyword argument 'independent_mutation_gate'"),
    ({"landscape_lambda_max": "20"}, "landscape_lambda_max must be an integer >= 1, got '20'"),
    # a misspelt section would otherwise leave analyze running all three at full scale
    ({"neutrallity": {"walks": 5}}, "unknown keys ['neutrallity']"),
    ({"out": 5}, "out must be a string, got 5"),
    ({"command": "analyse"}, "command must be gen, analyze or evolve, got 'analyse'"),
])
@pytest.mark.parametrize("command", ["gen", "evolve"])
def test_bad_ea_and_lambda_max_settings_exit_2(tmp_path, capsys, command, settings, message):
    spec = write_spec(tmp_path / "spec.json", **settings)
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{command}: spec file: " in err and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", [0, -2])
@pytest.mark.parametrize("argv", [["gen"], ["reproduce", "--preset", "table1"]])
def test_jobs_below_one_exits_2(tmp_path, capsys, argv, jobs):
    spec = write_spec(tmp_path / "spec.json")
    assert run_cli(with_spec(argv, spec) + ["--out", tmp_path / "out", "--jobs", jobs]) == 2
    assert f"{argv[0]}: --jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_good_lambda_max_and_ea_settings_load(tmp_path):
    from epiroad.cli import load_spec

    spec = load_spec(write_spec(tmp_path / "spec.json", landscape_lambda_max=120,
                                ea={"population": 10, "elitism": False}))
    assert spec.landscape_lambda_max == 120
    assert spec.ea == EaConfig(population=10, elitism=False)


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


def test_no_two_stream_paths_name_one_stream(tmp_path, monkeypatch):
    # SeedSequence pads an entropy shorter than four words with zeros, so the
    # paths (s, S) and (s, S, 0) would name one stream. Every path a tiny
    # corr-study opens (gen, the three campaigns and evolve) must name its own.
    from epiroad import cli as cli_mod
    from epiroad import seeds

    paths = set()
    seed_sequence = seeds.seed_sequence

    def recording(master_seed, *path):
        paths.add((int(master_seed), *(int(p) for p in path)))
        return seed_sequence(master_seed, *path)

    def tiny_preset(name, scale, seed):
        return cli_mod.ExperimentSpec(
            command="evolve", cells=[(6, k, b) for k in (0, 2) for b in (1, 2)],
            instances=2, seed=seed,
            campaigns={
                "random_walks": RandomWalkCampaign(walks=8, length=6, s_max=3),
                "adaptive_walks": AdaptiveWalkCampaign(walks=8, lambda_max=30),
                "neutrality": NeutralityCampaign(walks=4, length=3),
            },
            ea=EaConfig(population=12, generations=3, runs=3,
                        max_creation_size=10, max_program_size=30),
        )

    monkeypatch.setattr(seeds, "seed_sequence", recording)
    monkeypatch.setattr(cli_mod, "build_preset", tiny_preset)
    assert run_cli(["reproduce", "--preset", "corr-study",
                    "--out", tmp_path / "cs", "--jobs", 1]) == 0
    streams = {p[1] for p in paths if len(p) > 1}
    assert streams == {seeds.STREAM_NK_INSTANCE, seeds.STREAM_RANDOM_WALK,
                       seeds.STREAM_ADAPTIVE_WALK, seeds.STREAM_NEUTRALITY,
                       seeds.STREAM_EA_RUN, seeds.STREAM_LANDSCAPE_SEED,
                       seeds.STREAM_ADAPTIVE_START}
    named = {}
    for path in paths:
        state = np.random.SeedSequence(list(path)).generate_state(4).tobytes()
        assert named.setdefault(state, path) == path, (named[state], path)
    assert len(named) == len(paths) > 100


def test_reproduce_corr_study_smoke(tmp_path, capsys, monkeypatch):
    # shrink the grid through a tiny scale; the report must print both
    # correlation coefficients with their cell counts, no pass/fail
    from epiroad import cli as cli_mod

    def tiny_preset(name, scale, seed):
        spec = cli_mod.ExperimentSpec(
            command="evolve",
            cells=[(6, k, bb) for k in (0, 2) for bb in (2, 3)],
            instances=1, seed=seed,
            campaigns={
                "random_walks": RandomWalkCampaign(walks=30, length=12, s_max=5),
                "adaptive_walks": AdaptiveWalkCampaign(walks=20, lambda_max=50),
            },
            ea=EaConfig(population=30, generations=15, runs=2,
                        max_creation_size=10, max_program_size=100),
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
    assert spec.campaigns["random_walks"].walks == 20000
    scaled = build_preset("fig1", 0.01, 0)
    assert scaled.campaigns["random_walks"].walks == 200
    assert scaled.instances == 1


def test_spec_hash_covers_campaign_defaults(tmp_path):
    from epiroad.cli import load_spec

    def sha(**sections):
        return load_spec(write_spec(tmp_path / "spec.json", **sections)).sha256()

    spelled_out = {"walks": 20000, "length": 35, "s_max": 20}
    assert sha(random_walks={}) == sha(random_walks=spelled_out)
    assert sha(random_walks={"walks": 100}) != sha(random_walks={})
    assert sha(ea={}) == sha(ea={"population": 1000, "runs": 35})


def _listed_sha256(spec):
    """The spec's hash over its campaigns as listed, with no defaults filled in."""
    return hashlib.sha256(json.dumps(asdict(spec), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("command", [None, "analyze"])
def test_spec_hash_without_sections_counts_the_campaigns_analyze_runs(tmp_path, command):
    from epiroad.cli import load_spec

    def sha(**sections):
        return load_spec(write_spec(tmp_path / "spec.json", command=command, **sections)).sha256()

    assert sha() == sha(random_walks={}, adaptive_walks={}, neutrality={})
    assert sha() != sha(random_walks={})


@pytest.mark.parametrize("command", ["gen", "evolve"])
def test_spec_hash_without_sections_keeps_gen_and_evolve_hashes(tmp_path, command):
    from epiroad.cli import load_spec

    spec = load_spec(write_spec(tmp_path / "spec.json", command=command))
    assert spec.campaigns == {} and spec.sha256() == _listed_sha256(spec)


@pytest.mark.parametrize("scale", [1, 0.1, 0.005])
def test_preset_hashes_are_their_listed_campaigns(scale):
    from epiroad.cli import PRESET_NAMES, build_preset

    for name in PRESET_NAMES:
        spec = build_preset(name, scale, 0)
        assert spec.sha256() == _listed_sha256(spec), name


@pytest.mark.parametrize("name", ["table1", "fig1", "fig5", "corr-study"])
def test_preset_campaigns_are_the_class_defaults(name):
    from epiroad.cli import CAMPAIGNS, build_preset

    campaigns = build_preset(name, 1, 0).campaigns
    assert campaigns and all(c == CAMPAIGNS[s]() for s, c in campaigns.items())


def test_scaled_preset_keeps_two_adaptive_walks():
    from epiroad.cli import build_preset

    scaled = build_preset("fig5", 1e-4, 0)
    assert scaled.campaigns["adaptive_walks"].walks == 2


def test_fig6_preset_matches_reported_grid():
    from epiroad.cli import build_preset

    spec = build_preset("fig6", 1.0, 0)
    assert {c[0] for c in spec.cells} == {8}
    assert {c[1] for c in spec.cells} == {0, 1, 2, 3, 4}
    assert {c[2] for c in spec.cells} == {2, 3, 4, 5}


@pytest.mark.parametrize("section, settings, message", [
    ("neutrality", {"walk": 5}, "unexpected keyword argument 'walk'"),
    ("random_walks", {"walks": 5, "lenght": 3}, "unexpected keyword argument 'lenght'"),
    ("adaptive_walks", {"lambda": 5}, "unexpected keyword argument 'lambda'"),
    ("random_walks", {"lambda_max": "x"}, "lambda_max must be int, got 'x'"),
    ("neutrality", {"lambda_max": -1}, "lambda_max must be >= 0, got -1"),
    ("adaptive_walks", {"walks": True}, "walks must be int, got True"),
    ("neutrality", {"length": 2.0}, "length must be int, got 2.0"),
    # a section that is not a mapping fails load_spec's object check
    pytest.param("neutrality", [5], "must be a JSON object, got [5]",
                 id="neutrality-settings7-must be a mapping"),
])
@pytest.mark.parametrize("command", ["gen", "analyze"])
def test_campaign_key_typos_and_types_exit_2(tmp_path, capsys, command, section, settings,
                                             message):
    spec = write_spec(tmp_path / "spec.json", command="analyze", **{section: settings})
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    sep = ": " if isinstance(settings, dict) else " "
    assert f"{command}: spec file: {section}{sep}" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings, message", [
    ({"adaptive_walks": {"lambda_max": 500}},
     "adaptive_walks walk bound 500 exceeds the landscape lambda_max=100 (n=6, k=0, b=2)"),
    ({"neutrality": {"lambda_max": 101}},
     "neutrality walk bound 101 exceeds the landscape lambda_max=100 (n=6, k=0, b=2)"),
    ({"random_walks": {"lambda_max": 30}, "landscape_lambda_max": 20},
     "random_walks walk bound 30 exceeds the landscape lambda_max=20 (n=6, k=0, b=2)"),
    # without its own lambda_max a random walk is bounded by 2 * n * b = 24
    ({"random_walks": {}, "landscape_lambda_max": 20},
     "random_walks walk bound 24 exceeds the landscape lambda_max=20 (n=6, k=0, b=2)"),
    # analyze with no campaign section runs all three at their defaults
    ({"landscape_lambda_max": 40},
     "adaptive_walks walk bound 50 exceeds the landscape lambda_max=40 (n=6, k=0, b=2)"),
])
@pytest.mark.parametrize("command", ["gen", "analyze"])
def test_walk_bound_above_landscape_cap_exits_2(tmp_path, capsys, command, settings, message):
    spec = write_spec(tmp_path / "spec.json", command="analyze", **settings)
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    # one message, after the note when the command differs from the spec's
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"{command}: invalid cell: {message}"
    assert len(err) == 1 + (command != "analyze")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings", [
    {"landscape_lambda_max": 50, "ea": {"max_program_size": 100}},
    {"landscape_lambda_max": 50},  # the default max_program_size is 100
])
@pytest.mark.parametrize("command", ["gen", "analyze", "evolve"])
def test_program_size_above_landscape_cap_exits_2(tmp_path, capsys, command, settings):
    spec = write_spec(tmp_path / "spec.json", command="evolve", **settings)
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"{command}: invalid cell: ea max_program_size 100 exceeds the "
                       "landscape lambda_max=50 (n=6, k=0, b=2)")
    assert len(err) == 1 + (command != "evolve")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "evolve"])
def test_landscape_cap_below_one_block_per_letter_exits_2(tmp_path, capsys, command):
    # every landscape of the cell would fail to build, so the spec is refused
    spec = write_spec(tmp_path / "spec.json", command=command,
                      grid={"n": [8], "k": [2], "b": [4]}, landscape_lambda_max=10)
    assert run_cli([command, "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: invalid cell: the landscape lambda_max=10 cannot hold one block per "
        "letter, n*b=32 (n=8, k=2, b=4)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "analyze", "reproduce"])
def test_spec_file_beside_a_preset_exits_2(tmp_path, capsys, command):
    spec = write_spec(tmp_path / "spec.json")
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--spec", spec, "--preset", "table1", "--out", tmp_path / "out"])
    message = ("unrecognized arguments: --spec" if command == "reproduce"
               else "argument --preset: not allowed with argument --spec")
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scale_shrinks_the_campaigns_analyze_runs_by_default(tmp_path):
    from epiroad.cli import apply_scale, load_spec

    spec = load_spec(write_spec(tmp_path / "spec.json", command="analyze"))
    assert apply_scale(spec, 1.0) is spec
    assert apply_scale(spec, 0.001).campaigns == {
        "random_walks": RandomWalkCampaign(walks=20),
        "adaptive_walks": AdaptiveWalkCampaign(walks=2),
        "neutrality": NeutralityCampaign(walks=2)}
    # a spec that does not analyze runs no campaign, so none is added
    gen_spec = load_spec(write_spec(tmp_path / "gen.json", command="gen"))
    assert apply_scale(gen_spec, 0.001).campaigns == {}
    out = tmp_path / "out"
    for command in ("gen", "analyze"):
        assert run_cli([command, "--spec", tmp_path / "spec.json", "--out", out,
                        "--scale", 0.001, "--jobs", 1]) == 0
    assert len(csv_body(out / "analysis_instances.csv")) == 1 + 2  # header + 2 cells x 1


def test_scale_shrinks_the_default_campaigns_of_a_spec_without_command(tmp_path):
    from epiroad.cli import apply_scale, load_spec

    path = tmp_path / "spec.json"
    data = json.loads(write_spec(path, grid={"n": [6], "k": [0], "b": [2]},
                                 instances=1).read_text())
    del data["command"]
    path.write_text(json.dumps(data))
    spec = load_spec(path)
    assert spec.command is None and apply_scale(spec, 1.0) is spec
    assert apply_scale(spec, 0.001).campaigns == {
        "random_walks": RandomWalkCampaign(walks=20),
        "adaptive_walks": AdaptiveWalkCampaign(walks=2),
        "neutrality": NeutralityCampaign(walks=2)}
    out = tmp_path / "out"
    args = ["--spec", path, "--out", out, "--scale", 0.001, "--jobs", 1]
    assert run_cli(["gen"] + args) == 0
    assert run_cli(["analyze"] + args + ["--raw"]) == 0
    # gen and analyze derive one scaled spec, so both record one spec hash
    doc = json.loads((out / "landscapes" / "n06_k00_b2_i00.json").read_text())
    header = (out / "analysis_instances.csv").read_text().splitlines()
    assert f"# spec_sha256: {doc['provenance']['spec_sha256']}" in header
    records = [json.loads(line) for line in
               (out / "raw" / "walks_n06_k00_b2_i00.jsonl").read_text().splitlines()]
    assert Counter(r["campaign"] for r in records) == {"random": 20, "adaptive": 2}


@pytest.mark.parametrize("command", ["gen", "evolve"])
@pytest.mark.parametrize("scale", [1, 0.5])
def test_default_walk_bounds_are_checked_at_every_scale(tmp_path, capsys, command, scale):
    # a spec with no command and no campaign section runs all three campaigns,
    # so every command checks their default walk bounds, scaled or not
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"grid": {"n": [4], "k": [1], "b": [2]}, "instances": 2,
                                "landscape_lambda_max": 10}))
    assert run_cli([command, "--spec", path, "--out", tmp_path / "out",
                    "--scale", scale, "--jobs", 1]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: invalid cell: random_walks walk bound 16 exceeds the landscape "
        "lambda_max=10 (n=4, k=1, b=2)"]
    assert not (tmp_path / "out").exists()


def _er(n=6, k=0, b=2, lambda_max=100):
    return landscapes.er_build(n, k, b, lambda_max, seed=1)


TINY_EA = {"population": 20, "generations": 1, "runs": 1, "max_creation_size": 10}

# rule: (the commands that check it, the spec at value v, the run's own check
# at v, the value that breaks the rule, its boundary, the message at the
# breaking value after "invalid cell: "); the spec's cell is n=6, k=0, b=2
# unless it says otherwise
DRIFT_RULES = {
    "k = n": (("gen", "analyze", "evolve"), lambda v: {"grid": {"n": [6], "k": [v], "b": [2]}},
              lambda v: _er(k=v), 6, 5, "k must lie in [0, 5], got 6 (n=6, k=6, b=2)"),
    "b = 0": (("gen", "analyze", "evolve"), lambda v: {"grid": {"n": [6], "k": [0], "b": [v]}},
              lambda v: _er(b=v), 0, 1, "block size b must be >= 1, got 0 (n=6, k=0, b=0)"),
    # the check nk.all_fitness_values makes; a build at n = 24 would take 2**24 values
    "n = 25": (("gen", "analyze", "evolve"), lambda v: {"grid": {"n": [v], "k": [0], "b": [2]}},
               nk.check_n, 25, 24, "n=25 exceeds the exhaustive bound 24 (n=25, k=0, b=2)"),
    "lambda_max < n*b": (
        ("gen", "analyze", "evolve"),
        # sections whose caps fit 32, so the boundary also passes analyze and evolve
        lambda v: {"grid": {"n": [8], "k": [2], "b": [4]}, "landscape_lambda_max": v,
                   "neutrality": {"walks": 2, "length": 2},
                   "ea": {**TINY_EA, "max_program_size": 20}},
        lambda v: _er(8, 2, 4, v), 31, 32,
        "the landscape lambda_max=31 cannot hold one block per letter, n*b=32 (n=8, k=2, b=4)"),
    "random_walks cap": (
        ("gen", "analyze"),
        lambda v: {"command": "analyze", "landscape_lambda_max": v,
                   "random_walks": {"walks": 2, "length": 2, "s_max": 1}},
        lambda v: run_random_walk_campaign(_er(lambda_max=v),
                                           RandomWalkCampaign(walks=2, length=2, s_max=1)),
        23, 24, "random_walks walk bound 24 exceeds the landscape lambda_max=23 (n=6, k=0, b=2)"),
    "adaptive_walks cap": (
        ("gen", "analyze"),
        lambda v: {"command": "analyze", "landscape_lambda_max": v,
                   "adaptive_walks": {"walks": 2, "lambda_max": 30}},
        lambda v: run_adaptive_walk_campaign(_er(lambda_max=v),
                                             AdaptiveWalkCampaign(walks=2, lambda_max=30)),
        29, 30, "adaptive_walks walk bound 30 exceeds the landscape lambda_max=29 (n=6, k=0, b=2)"),
    "neutrality cap": (
        ("gen", "analyze"),
        lambda v: {"command": "analyze", "landscape_lambda_max": v,
                   "neutrality": {"walks": 2, "length": 2, "lambda_max": 30}},
        lambda v: neutrality_scan(_er(lambda_max=v),
                                  NeutralityCampaign(walks=2, length=2, lambda_max=30)),
        29, 30, "neutrality walk bound 30 exceeds the landscape lambda_max=29 (n=6, k=0, b=2)"),
    # analyze checks its default campaigns too, adaptive walks at 50
    "ea program cap": (
        ("gen", "analyze", "evolve"),
        lambda v: {"command": "evolve", "landscape_lambda_max": v,
                   "ea": {**TINY_EA, "max_program_size": 60}},
        lambda v: ea.run(EaConfig(**TINY_EA, max_program_size=60), _er(lambda_max=v)),
        59, 60, "ea max_program_size 60 exceeds the landscape lambda_max=59 (n=6, k=0, b=2)"),
}


@pytest.mark.parametrize("rule, command", [(rule, command) for rule, (commands, *_)
                                           in DRIFT_RULES.items() for command in commands])
def test_cell_checks_are_the_runs_own(tmp_path, capsys, rule, command):
    _, spec_at, run_at, broken, boundary, message = DRIFT_RULES[rule]

    def spec(name, v):
        return write_spec(tmp_path / name, **{"grid": {"n": [6], "k": [0], "b": [2]},
                                              "instances": 1, **spec_at(v)})

    assert run_cli([command, "--spec", spec("broken.json", broken),
                    "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"{command}: invalid cell: {message}"
    with pytest.raises(ValueError) as exc:
        run_at(broken)
    assert str(exc.value) in err[-1]
    # the boundary passes the command's check and the run's
    validate_cells(load_spec(spec("boundary.json", boundary)), command)
    run_at(boundary)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "analyze", "evolve"])
def test_unknown_grid_key_exits_2(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"grid": {"n": [4], "k": [1], "b": [2], "lambda": [30]},
                                "instances": 1, "neutrality": {"walks": 2, "length": 2}}))
    assert run_cli([command, "--spec", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: grid: unknown keys ['lambda']; known: ['b', 'k', 'n']"]
    assert not (tmp_path / "out").exists()


def test_program_size_is_not_checked_for_a_spec_that_does_not_evolve(tmp_path):
    spec = write_spec(tmp_path / "spec.json", command="analyze", landscape_lambda_max=50,
                      neutrality={"walks": 2, "length": 2})
    out = tmp_path / "out"
    assert run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", 1]) == 0


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-3"])
@pytest.mark.parametrize("argv", [["gen"], ["reproduce", "--preset", "table1"]])
def test_bad_scale_exits_2(tmp_path, capsys, argv, scale):
    spec = write_spec(tmp_path / "spec.json")
    args = with_spec(argv, spec) + ["--out", tmp_path / "out", "--jobs", 1, f"--scale={scale}"]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]}: --scale must be a finite number > 0, got {float(scale)!r}" in err
    assert not (tmp_path / "out").exists()


# the first line each preset's report prints
REPORT_HEADS = {
    "table1": "neutral-neighbor proportions, percent (observed | reference), n=8 k=4:",
    "fig1": "mean correlation length tau by (k, b), n=10",
    "fig3": "autocorrelation rho(s), s=1..5 shown, n=10:",
    "fig5": "adaptive walks, n=10",
    "fig6": "EA success rate by (k, b), n=8",
    "fig7": "mean best-blocks trace by generation, n=10 b=4",
    "fig8": "EA mean blocks of best individual, n=16",
    "corr-study": "correlation study (no pass threshold applied):",
}


@pytest.mark.parametrize("name", list(REPORT_HEADS))
def test_every_preset_reproduces_and_reports(tmp_path, capsys, monkeypatch, name):
    from dataclasses import replace

    from epiroad import cli as cli_mod

    assert set(cli_mod.PRESETS) == set(REPORT_HEADS)
    spec, report = cli_mod.PRESETS[name]
    monkeypatch.setitem(cli_mod.PRESETS, name, (replace(spec, cells=spec.cells[:2]), report))
    assert run_cli(["reproduce", "--preset", name, "--scale", 0.005,
                    "--out", tmp_path / name, "--jobs", 1]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = max(i for i, line in enumerate(lines) if ": wrote " in line) + 1
    assert lines[head].startswith(REPORT_HEADS[name])
    assert len(lines) > head + 1 and lines[-1].startswith("  ")


# tiny stand-ins for the presets' campaigns and EA sizes
TINY_CAMPAIGNS = {
    "random_walks": RandomWalkCampaign(walks=12, length=10, s_max=5),
    "adaptive_walks": AdaptiveWalkCampaign(walks=6, lambda_max=40),
    "neutrality": NeutralityCampaign(walks=3, length=4),
}

# the report each preset prints for its tiny spec (``_tiny_preset``), seed 0
REPORT_GOLDENS = {
    "table1": [
        "neutral-neighbor proportions, percent (observed | reference), n=8 k=4:",
        "  b=2: lower/equal/higher = 4.7/91.2/4.1 | 7.2/85.8/7.0",
        "  b=2: lower/equal/higher = 8.7/84.0/7.3 | 7.2/85.8/7.0",
        "  b=3: lower/equal/higher = 4.3/90.6/5.1 | 2.8/94.4/2.8",
        "  b=3: lower/equal/higher = 2.7/92.2/5.0 | 2.8/94.4/2.8",
    ],
    "fig1": [
        "mean correlation length tau by (k, b), n=10 (reference trend: decreasing in k, "
        "flatter for larger b):",
        "  b=2: k=0:1.42 k=3:1.67",
        "  b=3: k=0:2.33 k=3:1.61",
    ],
    "fig3": [
        "autocorrelation rho(s), s=1..5 shown, n=10:",
        "  k=0 b=2: 0.492 0.169 -0.008 -0.098 -0.191",
        "  k=3 b=2: 0.548 0.229 0.027 -0.182 -0.278",
        "  k=0 b=3: 0.618 0.312 0.045 -0.173 -0.241",
        "  k=3 b=3: 0.536 0.166 -0.088 -0.160 -0.174",
    ],
    "fig5": [
        "adaptive walks, n=10 (reference trends: length decreasing in k for small b; "
        "optima fitness decreasing in b):",
        "  k=0 b=2: mean_length=3.08 optima_fitness=0.7109",
        "  k=3 b=2: mean_length=1.08 optima_fitness=0.6506",
        "  k=0 b=3: mean_length=2.67 optima_fitness=0.4457",
        "  k=3 b=3: mean_length=1.50 optima_fitness=0.5690",
    ],
    "fig6": [
        "EA success rate by (k, b), n=8 (reference trend: decreasing in k, steeper for larger b):",
        "  k=0 b=2: success_rate=0.750",
        "  k=3 b=2: success_rate=0.000",
        "  k=0 b=3: success_rate=0.000",
        "  k=3 b=3: success_rate=0.000",
    ],
    "fig7": [
        "mean best-blocks trace by generation, n=10 b=4 (every 10th generation):",
        "  k=0: 0:1.4 10:4.5",
        "  k=3: 0:0.9 10:1.0",
    ],
    "fig8": [
        "EA mean blocks of best individual, n=16 (reference trend: decreasing as k or b "
        "increases):",
        "  k=0 b=2: mean_final_blocks=5.25",
        "  k=3 b=2: mean_final_blocks=1.00",
        "  k=0 b=3: mean_final_blocks=4.25",
        "  k=3 b=3: mean_final_blocks=1.00",
    ],
    "corr-study": [
        "correlation study (no pass threshold applied):",
        "  corr(adaptive walk length, mean blocks found) = 0.984 over 4 cells",
        "  corr(random-walk correlation length, mean blocks found) = 0.160 over 4 cells",
    ],
}


def _tiny_preset(name, scale, seed):
    """The preset's command, campaign kinds and EA settings, on four n=6 cells at tiny sizes."""
    from dataclasses import replace

    from epiroad import cli as cli_mod

    spec = cli_mod.PRESETS[name][0]
    return cli_mod.ExperimentSpec(
        command=spec.command, cells=[(6, k, b) for k in (0, 3) for b in (2, 3)],
        instances=2, seed=seed,
        campaigns={section: TINY_CAMPAIGNS[section] for section in spec.campaigns},
        ea=replace(spec.ea, population=20, generations=12, runs=2,
                   max_creation_size=10, max_program_size=40),
    )


@pytest.mark.parametrize("name", ["table1", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8",
                                  "corr-study"])
def test_preset_report_is_golden(tmp_path, capsys, monkeypatch, name):
    from epiroad import cli as cli_mod

    monkeypatch.setattr(cli_mod, "build_preset", _tiny_preset)
    assert run_cli(["reproduce", "--preset", name, "--out", tmp_path / name, "--jobs", 1]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = max(i for i, line in enumerate(lines) if ": wrote " in line) + 1
    assert lines[head:] == REPORT_GOLDENS[name]


@pytest.mark.parametrize("jobs", [1, 2])
def test_landscape_with_bad_mask_fails_its_unit(tmp_path, capsys, jobs):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1])
    for i in range(2):
        path = out / "landscapes" / f"n06_k02_b2_i{i:02d}.json"
        doc = json.loads(path.read_text())
        doc["nk"]["mask"] = "x"
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "analyze: cell n=6 k=2 b=2 instance 1: mask must be an int" in err
    assert "cell n=6 k=2 b=2 failed entirely" in err
    assert "k=0 b=2 failed entirely" not in err


def test_analyze_reports_a_format_1_landscape_file_per_unit(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", **ANALYZE_SPEC)
    out = tmp_path / "out"
    run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1])
    path = out / "landscapes" / "n06_k02_b2_i01.json"
    doc = json.loads(path.read_text())
    doc["version"] = 1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    err = capsys.readouterr().err
    assert "instance 1: landscape file version 1 is not 2; rerun `epiroad gen`" in err


def test_importing_the_cli_loads_no_process_pool():
    # a --jobs 1 run never pays for multiprocessing's import
    code = ("import sys, epiroad.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert res.stdout.strip() == "[]"


class Unprintable:
    def __str__(self):
        raise RuntimeError("injected write failure")


@pytest.mark.parametrize("previous", [None, b"previous bytes\n"])
def test_write_csv_failure_leaves_no_partial_file(tmp_path, previous):
    from epiroad.cli import write_csv

    path = tmp_path / "t.csv"
    if previous is not None:
        path.write_bytes(previous)
    rows = [{"a": i} for i in range(5000)] + [{"a": Unprintable()}]
    with pytest.raises(RuntimeError, match="injected"):
        write_csv(path, ["# header"], ["a"], rows)
    assert os.listdir(tmp_path) == ([] if previous is None else ["t.csv"])
    if previous is not None:
        assert path.read_bytes() == previous


def test_read_csv_inverts_write_csv(tmp_path):
    from epiroad.cli import read_csv, write_csv

    rows = [{"n": 6, "seed": 2**63 + 5, "x": 0.1, "y": -1e-05, "gens": ""},
            {"n": -3, "seed": 0, "x": float("nan"), "y": 5e-324, "gens": 12},
            {"n": 0, "seed": 1, "x": -math.inf, "y": 1.0, "gens": 0}]
    path = tmp_path / "t.csv"
    write_csv(path, ["# artifact: x", "# generated: y"], list(rows[0]), rows)
    # repr tells an int from an equal float, and a nan compares equal to itself
    assert [{k: repr(v) for k, v in row.items()} for row in read_csv(path)] == \
        [{k: repr(v) for k, v in row.items()} for row in rows]


def test_raw_walk_records_failure_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    from epiroad import cli as cli_mod

    spec = write_spec(tmp_path / "spec.json", grid={"n": [6], "k": [0], "b": [2]},
                      instances=1, command="analyze",
                      random_walks={"walks": 30, "length": 5, "s_max": 2})
    out = tmp_path / "out"
    assert run_cli(["gen", "--spec", spec, "--out", out, "--jobs", 1]) == 0
    real_dumps, calls = json.dumps, []

    def failing_dumps(obj, *args, **kw):
        if isinstance(obj, dict) and "campaign" in obj:
            calls.append(obj)
            if len(calls) == 20:  # partway through the unit's 30 records
                raise RuntimeError("injected raw write failure")
        return real_dumps(obj, *args, **kw)

    monkeypatch.setattr(cli_mod.json, "dumps", failing_dumps)
    assert run_cli(["analyze", "--spec", spec, "--out", out, "--jobs", 1, "--raw"]) == 1
    assert "injected raw write failure" in capsys.readouterr().err
    assert os.listdir(out / "raw") == []
