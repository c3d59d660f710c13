"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -m acceptance -s` to watch the lines appear; the full set
takes a few minutes (criterion 1 runs the neutrality table at full scale).
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from epiroad import ea, nk
from epiroad.analysis import (
    AdaptiveWalkCampaign,
    NeutralityCampaign,
    RandomWalkCampaign,
    autocorrelation,
    neutrality_scan,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from epiroad.cli import REFERENCE_NEUTRALITY, build_preset
from epiroad.genotype import (
    block_bits,
    block_vector,
    enumerate_neighbors,
    neighbor_count,
    random_genotype,
)
from epiroad.landscapes import er_build
from epiroad.seeds import (
    STREAM_ADAPTIVE_WALK,
    STREAM_LANDSCAPE_SEED,
    STREAM_NEUTRALITY,
    STREAM_NK_INSTANCE,
    STREAM_RANDOM_WALK,
    derive_seed,
    make_rng,
)

pytestmark = pytest.mark.acceptance

MASTER = 20260810


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _er(n, k, b, instance, lambda_max=None):
    lam = lambda_max or max(2 * n * b, 100)
    return er_build(n, k, b, lam, seed=derive_seed(MASTER, STREAM_LANDSCAPE_SEED,
                                                   n, k, b, instance))


@pytest.mark.parametrize("b", [2, 3, 4])
def test_criterion_1_neutrality_table(b):
    # full scale: 2000 walks of length 20 per instance, 10 instances
    triples = []
    for i in range(10):
        L = _er(8, 4, b, i)
        seed = derive_seed(MASTER, STREAM_NEUTRALITY, 8, 4, b, i)
        triples.append(neutrality_scan(L, NeutralityCampaign(walks=2000, length=20, seed=seed)))
    observed = tuple(100 * v for v in np.mean(triples, axis=0))
    ref = REFERENCE_NEUTRALITY[b]
    deltas = [abs(o - r) for o, r in zip(observed, ref)]
    ok = all(d <= 1.5 for d in deltas)
    report(
        f"criterion 1 (neutrality table, b={b})", ok,
        f"lower/equal/higher = {observed[0]:.2f}/{observed[1]:.2f}/{observed[2]:.2f} "
        f"vs reference {ref[0]}/{ref[1]}/{ref[2]} (tolerance 1.5 points)",
    )


def test_criterion_2_nk_rho_closed_form():
    # ensemble rho(1): pool one-bit-flip walks across 50 instances per k
    details = []
    ok = True
    for k in (0, 2, 4, 8):
        pool = []
        for i in range(50):
            inst = nk.generate(10, k, "random",
                               seed=derive_seed(MASTER, STREAM_NK_INSTANCE, 10, k, i))
            rng = make_rng(MASTER, STREAM_RANDOM_WALK, 10, k, i)
            start = tuple(int(v) for v in rng.integers(0, 2, size=10))
            pool.append(nk.random_walk(inst, start, 2000, rng))
        assert sum(len(s) - 1 for s in pool) >= 100_000
        rho1 = autocorrelation(pool, 1, centering="pool")
        target = 1 - (k + 1) / 10
        ok &= abs(rho1 - target) <= 0.03
        details.append(f"k={k}: {rho1:.4f} vs {target:.1f}")
    report("criterion 2a (NK rho(1) closed form, tol 0.03)", ok, "; ".join(details))


def test_criterion_2_local_optima_fraction():
    # k = n-1 random assignment: local-optimum probability 1/(n+1)
    fractions = []
    for i in range(30):
        inst = nk.generate(8, 7, "random",
                           seed=derive_seed(MASTER, STREAM_NK_INSTANCE, 8, 7, i))
        fractions.append(nk.count_local_optima(inst) / 256)
    mean = float(np.mean(fractions))
    se = float(np.std(fractions, ddof=1)) / np.sqrt(len(fractions))
    target = 1 / 9
    ok = abs(mean - target) <= 3 * se
    report(
        "criterion 2b (local optima fraction, k=n-1)", ok,
        f"mean {mean:.5f} vs 1/9 = {target:.5f}, 3se = {3 * se:.5f}, 30 instances",
    )


def test_criterion_3_normalization():
    cases = list(itertools.islice(itertools.cycle(
        [(8, 2, "random"), (10, 4, "random"), (12, 6, "random"), (9, 3, "adjacent"),
         (11, 1, "random")]), 20))
    ok = True
    for idx, (n, k, kind) in enumerate(cases):
        inst = nk.generate(n, k, kind, seed=derive_seed(MASTER, STREAM_NK_INSTANCE,
                                                        n, k, idx))
        norm = nk.normalize_to_one(inst)
        before = np.sort(nk.all_fitness_values(inst))
        after = nk.all_fitness_values(norm)
        ok &= int(np.argmax(after)) == (1 << n) - 1
        ok &= bool(np.array_equal(before, np.sort(after)))
    report("criterion 3 (normalization)", ok,
           "20 instances, n <= 12: argmax all-ones and value multiset exactly preserved")


def test_criterion_4_er_structure():
    rng = make_rng(MASTER, 99)
    checked = 0
    ok = True
    for idx in range(20):
        k = idx % 8
        L = _er(8, k, 2, 100 + idx)
        for _ in range(40):
            g = random_genotype(60, 8, rng)
            ok &= L.evaluate(g) == nk.fitness(L.nk, block_vector(g, 8, 2))
            checked += 1
        # genotypes holding all 8 blocks, various paddings and orders
        perm = [int(v) for v in rng.permutation(8)]
        full = tuple(s for letter in perm for s in [letter] * 2)
        padded = full + tuple(int(v) for v in rng.integers(0, 8, size=10))
        for g in (full, padded):
            ok &= block_bits(g, 8, 2) == 255
            ok &= L.evaluate(g) == L.optimum_value
    report("criterion 4 (ER factors through block vector)", ok,
           f"20 landscapes, {checked} random genotypes exact, full-block genotypes "
           f"attain the recorded optimum")


def test_criterion_5_correlation_length_trends():
    taus = {}
    for b in (1, 4):
        for k in (0, 2, 4, 8):
            per_inst = []
            for i in range(10):
                L = _er(10, k, b, i)
                camp = RandomWalkCampaign(
                    walks=2000, length=35, s_max=1,
                    lambda_max=2 * 10 * b,
                    seed=derive_seed(MASTER, STREAM_RANDOM_WALK, 10, k, b, i),
                )
                stats, _ = run_random_walk_campaign(L, camp)
                per_inst.append(stats.tau)
            taus[(b, k)] = float(np.mean(per_inst))
    b1 = [taus[(1, k)] for k in (0, 2, 4, 8)]
    b4 = [taus[(4, k)] for k in (0, 2, 4, 8)]
    decreasing = all(a > c for a, c in zip(b1, b1[1:]))
    spread_ok = (max(b4) - min(b4)) < (max(b1) - min(b1))
    ok = decreasing and spread_ok and all(np.isfinite(b1 + b4))
    report(
        "criterion 5 (tau trends)", ok,
        f"b=1 tau by k: {[round(t, 2) for t in b1]} (strictly decreasing: {decreasing}); "
        f"spread b=4 {max(b4) - min(b4):.2f} < spread b=1 {max(b1) - min(b1):.2f}: {spread_ok}",
    )


def test_criterion_6_adaptive_walk_trends():
    def campaign_stats(k, b, i):
        L = _er(10, k, b, i)
        camp = AdaptiveWalkCampaign(
            walks=500, lambda_max=50,
            seed=derive_seed(MASTER, STREAM_ADAPTIVE_WALK, 10, k, b, i),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats, _ = run_adaptive_walk_campaign(L, camp)
        return stats

    lengths = []
    for k in (0, 2, 4, 8):
        stats = [campaign_stats(k, 1, i) for i in range(5)]
        lengths.append(float(np.mean([s.mean_walk_length for s in stats])))
    length_trend = all(a > c for a, c in zip(lengths, lengths[1:]))

    fits = []
    for b in (1, 2, 3, 4):
        stats = [campaign_stats(2, b, i) for i in range(5)]
        fits.append(float(np.mean([s.optima_fitness_mean for s in stats])))
    fitness_trend = all(a > c for a, c in zip(fits, fits[1:]))

    ok = length_trend and fitness_trend
    report(
        "criterion 6 (adaptive walk trends)", ok,
        f"b=1 mean length by k: {[round(v, 3) for v in lengths]} (decreasing: "
        f"{length_trend}); k=2 mean optima fitness by b: {[round(v, 4) for v in fits]} "
        f"(decreasing: {fitness_trend})",
    )


def test_criterion_7_ea_desk_scale():
    rates = {}
    monotone = True
    for k in (0, 4):
        successes = 0
        total = 0
        for i in range(3):
            L = _er(8, k, 2, i)
            cfg = ea.EaConfig(population=200, generations=100, runs=10)
            for res in ea.run_instance(cfg, L, 8, k, 2, i, MASTER):
                monotone &= all(
                    a <= c for a, c in
                    zip(res.best_fitness_trace, res.best_fitness_trace[1:])
                )
                successes += res.success
                total += 1
        rates[k] = successes / total
    ok = rates[0] >= 0.9 and rates[4] < rates[0] and monotone
    report(
        "criterion 7 (EA desk scale)", ok,
        f"success rate k=0: {rates[0]:.2f} (need >= 0.9), k=4: {rates[4]:.2f} "
        f"(need < k=0), traces non-decreasing: {monotone}",
    )


def test_criterion_8_property_suites_fast():
    t0 = time.perf_counter()
    rng = make_rng(MASTER, 8)

    # neighborhood count
    for n in (2, 4, 8, 16):
        for lam in range(21):
            g = tuple(int(v) for v in rng.integers(0, n, size=lam))
            assert len(enumerate_neighbors(g, n)) == neighbor_count(lam, n)

    # mutation length deltas
    cfg = ea.EaConfig()
    for _ in range(2000):
        g = tuple(int(v) for v in rng.integers(0, 8, size=int(rng.integers(0, 30))))
        assert abs(len(ea.mutate(g, cfg, 8, rng)) - len(g)) <= 1

    # crossover symbol conservation
    from collections import Counter

    xcfg = ea.EaConfig(crossover_rate=1.0)
    for _ in range(2000):
        a = tuple(int(v) for v in rng.integers(0, 8, size=int(rng.integers(0, 40))))
        c = tuple(int(v) for v in rng.integers(0, 8, size=int(rng.integers(0, 40))))
        c1, c2 = ea.one_point_crossover(a, c, xcfg, rng)
        assert Counter(c1) + Counter(c2) == Counter(a) + Counter(c)

    # seed determinism: instances, campaigns, runs
    assert np.array_equal(nk.generate(8, 3, "random", 5).tables,
                          nk.generate(8, 3, "random", 5).tables)
    L = _er(8, 2, 2, 0)
    camp = RandomWalkCampaign(walks=20, length=10, s_max=3, seed=3)
    assert run_random_walk_campaign(L, camp)[0] == run_random_walk_campaign(L, camp)[0]
    assert neutrality_scan(L, NeutralityCampaign(walks=5, length=5, seed=4)) == \
        neutrality_scan(L, NeutralityCampaign(walks=5, length=5, seed=4))
    cfg = ea.EaConfig(population=40, generations=5, seed=6, max_creation_size=10)
    assert ea.run(cfg, L) == ea.run(cfg, L)

    # block vector translocation invariance (differing flanks at removal)
    for _ in range(500):
        n_seg = int(rng.integers(2, 6))
        segs = []
        for _ in range(n_seg):
            letter = int(rng.integers(0, 4))
            while segs and segs[-1][0] == letter:
                letter = int(rng.integers(0, 4))
            segs.append((letter, int(rng.integers(1, 5))))
        blocks = [i for i, (_, ln) in enumerate(segs) if ln >= 2]
        if not blocks:
            continue
        i = blocks[int(rng.integers(len(blocks)))]
        left = segs[i - 1][0] if i > 0 else None
        right = segs[i + 1][0] if i + 1 < len(segs) else None
        if left is not None and right is not None and left == right:
            continue
        rest = segs[:i] + segs[i + 1:]
        j = int(rng.integers(len(rest) + 1))
        moved = rest[:j] + [segs[i]] + rest[j:]
        flat = lambda ss: tuple(s for letter, ln in ss for s in [letter] * ln)
        assert block_vector(flat(segs), 4, 2) == block_vector(flat(moved), 4, 2)

    elapsed = time.perf_counter() - t0
    report("criterion 8 (property suites)", elapsed < 60,
           f"neighborhood counts, mutation deltas, crossover conservation, "
           f"determinism, translocation invariance in {elapsed:.1f}s (< 60s)")


def test_criterion_9_corr_study_reports_without_threshold(tmp_path, capsys, monkeypatch):
    # the headline correlation needs the full 35x10-run grid; at desk scale
    # the study must report coefficients and sample sizes only
    from epiroad import cli as cli_mod

    spec = cli_mod.ExperimentSpec(
        command="evolve",
        cells=[(8, k, b) for k in (0, 2, 4) for b in (2, 3)],
        instances=2, seed=MASTER,
        campaigns={
            "random_walks": RandomWalkCampaign(walks=100, length=20, s_max=3),
            "adaptive_walks": AdaptiveWalkCampaign(walks=60, lambda_max=50),
        },
        ea=ea.EaConfig(population=60, generations=25, runs=3,
                       max_creation_size=20, max_program_size=100),
    )
    out = tmp_path / "corr"
    # the desk-scale spec replaces the preset's, so reproduce runs gen, analyze,
    # evolve and the corr-study report on it
    monkeypatch.setitem(cli_mod.PRESETS, "corr-study", (spec, cli_mod.PRESETS["corr-study"][1]))
    assert cli_mod.cmd_reproduce("corr-study", out, MASTER, scale=1.0, jobs=1) == 0
    text = capsys.readouterr().out
    ok = ("corr(adaptive walk length, mean blocks found)" in text
          and "corr(random-walk correlation length, mean blocks found)" in text
          and "cells" in text
          and "no pass threshold" in text)
    line = [l for l in text.splitlines() if "adaptive walk length" in l]
    report("criterion 9 (corr-study reports, no threshold)", ok,
           line[0].strip() if line else "report lines missing")
