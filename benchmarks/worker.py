"""One benchmark round: one process that sets up a workload and times it.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --work DIR
                                   [--trace SPANS.npz] [--tiny] [--setup-only]

The process imports epiroad from the checkout's ``src``, writes the
workload's specs into DIR, runs ``gen`` (the set-up) and then the timed
phase through ``epiroad.cli.main`` with ``--jobs 1``. It checks the outputs
after the timed phase and prints one JSON object as its last stdout line.
An untraced round runs ``speed.SpeedProbe`` from its start to the end of the
timed phase and reports each CPU time both raw and rescaled to the probe's
reference speed. With ``--trace SPANS`` the recorder's wrappers are installed
for the whole round instead, and times are raw process CPU time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A unit the CLI isolated as failed: "<command>: cell n=.. k=.. b=.. instance i: ..."
FAILURE_LINE = re.compile(r"^(gen|analyze|evolve): cell n=\d+ k=\d+ b=\d+ (instance \d+|failed)",
                          re.M)


def _import_epiroad():
    sys.path.insert(0, str(SRC))
    import epiroad
    from epiroad import analysis, cli, ea, genotype, landscapes, nk, seeds

    if Path(epiroad.__file__).resolve().parent != SRC / "epiroad":
        raise ImportError(f"epiroad imported from {epiroad.__file__}, not from {SRC}")
    return {"seeds": seeds, "genotype": genotype, "nk": nk, "landscapes": landscapes,
            "analysis": analysis, "ea": ea, "cli": cli}


def _table_sha(ls) -> str:
    return hashlib.sha256(np.ascontiguousarray(ls.bv_fitness)).hexdigest()


def run_round(workload: str, seed: int, work: Path, spans_path: Path | None, tiny: bool,
              setup_only: bool = False) -> dict:
    import workloads
    from speed import SpeedProbe

    probe = None if spans_path is not None else SpeedProbe()
    if probe is not None:
        probe.start()

    def clock() -> tuple[float, float | None]:
        return probe.read() if probe is not None else (time.process_time(), None)

    modules = _import_epiroad()
    cli, landscapes = modules["cli"], modules["landscapes"]
    spec_list = workloads.specs(workload, seed, tiny)
    plan = []
    for i, spec in enumerate(spec_list):
        path = work / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        plan.append((str(path), work / f"out{i}", spec["command"]))

    recorder = None
    if spans_path is not None:
        from recorder import Recorder

        recorder = Recorder(modules)
        recorder.install()

    built: dict[str, str] = {}
    if workload == "build":
        # keep the built table's hash, so the reloaded one can be compared bit for bit
        save = landscapes.save_landscape

        def save_hashed(ls, path, provenance=None):
            built[str(path)] = _table_sha(ls)
            return save(ls, path, provenance=provenance)

        landscapes.save_landscape = save_hashed

    def cli_main(command, spec_path, out):
        return cli.main([command, "--spec", spec_path, "--out", str(out), "--jobs", "1"])

    codes: list[int] = []
    loaded: dict[str, tuple] = {}
    err = io.StringIO()
    messages: list[str] = []
    t_timed = t_end = cpu_timed = cpu_end = ref_timed = ref_end = None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if workload != "build":
                codes += [cli_main("gen", spec_path, out) for spec_path, out, _ in plan]
            if probe is not None:
                probe.use(workloads.PROBE_KERNEL[workload])
            t_timed, (cpu_timed, ref_timed) = time.monotonic(), clock()
            if setup_only:
                return {"t_timed": t_timed, "setup_s": ref_timed, "setup_cpu_s": cpu_timed,
                        "messages": []}
            for spec_path, out, command in plan:
                codes.append(cli_main(command, spec_path, out))
            if workload == "build":
                for _, out, _ in plan:
                    for path in sorted((out / "landscapes").glob("*.json")):
                        ls = landscapes.load_landscape(path)
                        loaded[str(path)] = (built.get(str(path)), _table_sha(ls),
                                             int(np.argmax(ls.bv_fitness)))
            t_end, (cpu_end, ref_end) = time.monotonic(), clock()
    except Exception:  # a crash fails the round's units; the round still reports
        messages.append(traceback.format_exc(limit=3))
    finally:
        if probe is not None:
            probe.stop()
        if recorder is not None:
            recorder.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a unit the CLI reports as failed has no output row, so the checks count it
    result = workloads.check_outputs(spec_list, [out for _, out, _ in plan], loaded)
    failure_lines = FAILURE_LINE.findall(err.getvalue())
    if failure_lines or any(codes):
        messages.append(f"exit codes {codes}; CLI failure lines: {len(failure_lines)}")
    if t_end is None:
        result["failed"] = result["units"]
    result["messages"] = messages + result["messages"]
    result.update({
        "t_timed": t_timed,
        "wall_s": None if t_end is None else t_end - t_timed,
        "setup_s": ref_timed,
        "setup_cpu_s": cpu_timed,
        "ref_cpu_s": None if t_end is None or probe is None else ref_end - ref_timed,
        "cpu_s": None if t_end is None else cpu_end - cpu_timed,
        "probe_samples": None if probe is None else probe.samples,
        "probe_kernel_s": None if probe is None else probe.kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "trace": None,
    })
    if recorder is not None:
        from recorder import layer_metrics

        recorder.save(spans_path)
        spans = recorder.per_span()
        result["trace"] = {"spans": spans, "metrics": layer_metrics(spans, recorder.counters)}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--trace", type=Path, metavar="SPANS",
                   help="install the recorder and write its spans to this .npz file")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="stop where the timed phase starts")
    args = p.parse_args(argv)
    result = run_round(args.workload, args.seed, args.work, args.trace, args.tiny,
                       args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
