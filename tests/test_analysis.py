import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiroad import nk
from epiroad.analysis import (
    AdaptiveWalkCampaign,
    RandomWalkCampaign,
    _class_counts_batch,
    adaptive_walk,
    autocorrelation,
    classify_neighbors,
    correlation_length,
    local_optima_stats,
    neighbor_class_counts,
    neutrality_scan,
    random_walk,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from epiroad.genotype import BlockParams, random_genotype, row_to_genotype
from epiroad.landscapes import RoyalRoadLandscape, er_build
from epiroad.seeds import make_rng


class ConstantLandscape:
    """Minimal landscape stub; records every evaluated genotype."""

    def __init__(self, n_letters=3, lambda_max=20, value=0.5):
        self.n_letters = n_letters
        self.b = 1
        self.lambda_max = lambda_max
        self.value = value
        self.seen = []

    def evaluate(self, g):
        self.seen.append(tuple(g))
        return self.value


def test_random_walk_length_zero_is_start_fitness():
    L = er_build(8, 2, 2, 100, seed=1)
    series = random_walk(L, (0, 0, 1), 0, make_rng(0, 0))
    assert len(series) == 1
    assert series[0] == L.evaluate((0, 0, 1))


def test_random_walk_constant_landscape():
    L = ConstantLandscape()
    series = random_walk(L, (0, 1), 30, make_rng(1, 0), lambda_max=10)
    assert np.all(series == 0.5)


def test_random_walk_respects_cap():
    L = ConstantLandscape(lambda_max=6)
    random_walk(L, (0, 1, 2), 200, make_rng(2, 0), lambda_max=6)
    assert max(len(g) for g in L.seen) <= 6


def test_random_walk_single_letter_alphabet():
    # one letter, b=1: fitness is 0 on the empty genotype and 1 otherwise
    L = RoyalRoadLandscape(BlockParams(1, 1, 5))
    series = random_walk(L, (), 100, make_rng(3, 0), lambda_max=5)
    assert set(np.unique(series)) <= {0.0, 1.0}
    assert series[0] == 0.0


def test_autocorrelation_lag0_is_exactly_one():
    rng = make_rng(4, 0)
    pool = rng.random((5, 30))
    assert autocorrelation(pool, 0) == 1.0


def test_autocorrelation_iid_noise_near_zero():
    rng = make_rng(5, 0)
    pool = rng.random((200, 100))
    rho1 = autocorrelation(pool, 1)
    assert abs(rho1) < 3 / math.sqrt(pool.size)


def test_autocorrelation_nk_walks_match_closed_form():
    # pool across instances: any single instance sits a few percent off
    rng = make_rng(6, 1)
    pool = []
    for seed in range(5):
        inst = nk.generate(10, 4, "random", seed=seed)
        for w in range(20):
            start = tuple(int(v) for v in rng.integers(0, 2, size=10))
            pool.append(nk.random_walk(inst, start, 500, rng))
    rho1 = autocorrelation(pool, 1)
    assert abs(rho1 - 0.5) < 0.03  # 1 - (k+1)/n
    per_walk = autocorrelation(pool, 1, per_walk=True)
    assert abs(per_walk - 0.5) < 0.05


def test_autocorrelation_zero_variance_undefined():
    assert math.isnan(autocorrelation([np.full(10, 0.3)], 1))
    assert math.isnan(autocorrelation([np.full(10, 0.3)], 0))


def test_correlation_length_values():
    assert abs(correlation_length(0.9) - 9.4912) < 1e-4
    assert abs(correlation_length(1 / math.e) - 1.0) < 1e-12
    assert correlation_length(0.95) > correlation_length(0.9)
    assert math.isnan(correlation_length(0.0))
    assert math.isnan(correlation_length(1.0))
    assert math.isnan(correlation_length(-0.2))


def test_adaptive_walk_stops_at_local_optimum_start():
    L = er_build(8, 2, 2, 100, seed=7)
    g = tuple(s for letter in range(8) for s in [letter] * 2)  # global optimum
    end, f, steps = adaptive_walk(L, g, make_rng(7, 0), lambda_max=50)
    assert steps == 0
    assert end == g
    assert f == L.optimum_value


def test_adaptive_walk_k0_b1_reaches_optimum():
    # with b=1 any absent letter becomes a block in one insertion, so for
    # k=0 a strictly fitter neighbor exists everywhere below the top
    L = er_build(8, 0, 1, 100, seed=8)
    rng = make_rng(8, 1)
    for _ in range(15):
        start = random_genotype(50, 8, rng)
        end, f, steps = adaptive_walk(L, start, rng, lambda_max=50)
        assert f == L.optimum_value
        assert steps <= 8 * (1 + 2)


def test_adaptive_walk_endpoints_are_local_optima():
    # for b >= 2 a genotype missing a letter entirely cannot gain that block
    # in one edit, so walks may stop below the optimum; every endpoint must
    # still have no strictly fitter neighbor
    L = er_build(8, 0, 2, 100, seed=8)
    rng = make_rng(8, 2)
    reached = 0
    for _ in range(15):
        start = random_genotype(50, 8, rng)
        end, f, steps = adaptive_walk(L, start, rng, lambda_max=50)
        _, _, higher = neighbor_class_counts(L, end, f, 50)
        assert higher == 0
        reached += f == L.optimum_value
    assert reached > 0  # starts holding every letter do climb to the top


def test_adaptive_walk_deterministic():
    L = er_build(8, 4, 2, 100, seed=9)
    start = (0, 1, 2, 3)
    r1 = adaptive_walk(L, start, make_rng(9, 0), lambda_max=50)
    r2 = adaptive_walk(L, start, make_rng(9, 0), lambda_max=50)
    assert r1 == r2


def test_local_optima_stats_all_zero_lengths():
    stats = local_optima_stats([0.4, 0.6], [0, 0])
    assert stats.est_optima_distance == 0.0
    assert stats.mean_walk_length == 0.0


def test_local_optima_stats_matches_independent_recomputation():
    rng = make_rng(10, 0)
    finals = rng.random(101)
    lengths = rng.integers(0, 12, size=101)
    stats = local_optima_stats(finals, lengths)
    assert abs(stats.optima_fitness_mean - statistics.fmean(finals)) < 1e-12
    assert abs(stats.optima_fitness_std - statistics.pstdev(finals)) < 1e-12
    assert abs(stats.mean_walk_length - statistics.fmean(lengths)) < 1e-12
    assert stats.est_optima_distance == 2 * stats.mean_walk_length


def test_local_optima_stats_requires_two_walks():
    with pytest.raises(ValueError):
        local_optima_stats([0.5], [1])


def test_adaptive_campaign_deterministic_and_raw_consistent():
    L = er_build(8, 3, 2, 100, seed=11)
    campaign = AdaptiveWalkCampaign(walks=30, lambda_max=50, seed=12)
    s1, raw1 = run_adaptive_walk_campaign(L, campaign)
    s2, raw2 = run_adaptive_walk_campaign(L, campaign)
    assert s1 == s2
    assert np.array_equal(raw1["final_fitness"], raw2["final_fitness"])
    assert s1.optima_fitness_mean == float(np.mean(raw1["final_fitness"]))
    assert s1.mean_walk_length == float(np.mean(raw1["lengths"]))


def test_random_campaign_deterministic():
    L = er_build(8, 2, 2, 100, seed=13)
    campaign = RandomWalkCampaign(walks=50, length=20, s_max=5, seed=14)
    s1, raw1 = run_random_walk_campaign(L, campaign)
    s2, _ = run_random_walk_campaign(L, campaign)
    assert s1 == s2
    assert raw1["series"].shape == (50, 21)
    assert s1.rho[0] == 1.0


def test_campaign_cap_cannot_exceed_landscape():
    L = er_build(4, 1, 2, 8, seed=15)
    with pytest.raises(ValueError):
        run_random_walk_campaign(L, RandomWalkCampaign(walks=2, length=2, lambda_max=9))
    with pytest.raises(ValueError):
        run_adaptive_walk_campaign(L, AdaptiveWalkCampaign(walks=2, lambda_max=9))


def test_neutrality_constant_landscape_is_all_equal():
    L = ConstantLandscape(n_letters=3, lambda_max=12)
    triple = neutrality_scan(L, walks=5, length=5, seed=16)
    assert triple == (0.0, 1.0, 0.0)


def test_neutrality_proportions_sum_to_one():
    L = er_build(8, 4, 2, 100, seed=17)
    triple = neutrality_scan(L, walks=20, length=10, seed=18)
    assert abs(sum(triple) - 1.0) < 1e-9
    assert all(0.0 <= v <= 1.0 for v in triple)


def test_neutrality_scan_deterministic():
    L = er_build(8, 4, 3, 100, seed=19)
    a = neutrality_scan(L, walks=15, length=8, seed=20)
    b = neutrality_scan(L, walks=15, length=8, seed=20)
    assert a == b


def test_fast_class_counts_match_matrix_oracle():
    rng = make_rng(21, 0)
    for trial in range(150):
        n = int(rng.integers(2, 7))
        b = int(rng.integers(1, 4))
        k = int(rng.integers(0, n))
        L = er_build(n, k, b, max(2 * n * b, 30), seed=trial % 7)
        g = random_genotype(14, n, rng)
        cap = max(len(g), int(rng.integers(1, 16)))
        f = L.evaluate(g)
        (oracle, _, _) = classify_neighbors(L, g, f, cap)
        assert neighbor_class_counts(L, g, f, cap) == oracle


def test_fast_class_counts_cover_operation_multiset():
    L = er_build(6, 2, 2, 40, seed=22)
    rng = make_rng(23, 0)
    for _ in range(50):
        g = random_genotype(20, 6, rng)
        f = L.evaluate(g)
        lo, eq, hi = neighbor_class_counts(L, g, f, 40)
        assert lo + eq + hi == (2 * len(g) + 1) * 6
        lo, eq, hi = neighbor_class_counts(L, g, f, len(g))  # at the cap
        assert lo + eq + hi == len(g) * 6


@st.composite
def run_batches(draw):
    """(n, b, genotypes, cap): genotypes spelled as runs of length 1, b-1, b or b+1.

    An empty genotype sits in the middle of every batch. In about half the
    batches the longest genotype sits exactly at the cap, so it has no
    insertions.
    """
    n = draw(st.integers(1, 5))
    b = draw(st.integers(1, 5))
    runs = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, b - 1, b, b + 1])),
                    max_size=6)
    genotypes = draw(st.lists(runs.map(lambda rs: tuple(l for l, ln in rs for _ in range(ln))),
                              min_size=1, max_size=4))
    genotypes.insert(len(genotypes) // 2, ())
    cap = max(map(len, genotypes)) + (0 if draw(st.booleans()) else 1)
    return n, b, genotypes, cap


@given(run_batches(), st.integers(0, 4), st.integers(0, 3))
@example((3, 3, [(0, 0, 1, 0, 0, 0), (), (2, 1, 2, 0, 1, 0), (1, 1, 0, 1)], 7), 2, 0)  # bridges
@example((1, 1, [(0, 0), (), (0,)], 2), 0, 0)  # one letter, b = 1
@settings(max_examples=150, deadline=None)
def test_class_counts_batch_matches_matrix_oracle(batch, k, seed):
    n, b, genotypes, cap = batch
    L = er_build(n, min(k, n - 1), b, max(n * b, cap), seed=seed)
    fits = [L.evaluate(g) for g in genotypes]
    rows = _class_counts_batch(L, genotypes, fits, cap)
    assert rows.shape == (len(genotypes), 3)
    for g, f, row in zip(genotypes, fits, rows):
        (oracle, _, _) = classify_neighbors(L, g, f, cap)
        assert tuple(row) == oracle
        lam = len(g)
        assert row.sum() == (lam * n if lam >= cap else (2 * lam + 1) * n)


# neutrality_scan(er_build(n, k, b, lambda_max, seed), walks=40, length=20, seed=7), as
# the scalar classifier computed it; with lambda_max = 8 about a third of the visited
# genotypes sit at the cap
GOLDEN_NEUTRALITY = {
    (8, 4, 2, 100, 101): (0.07402531334205437, 0.8548060689408423, 0.07116861771710328),
    (8, 4, 4, 100, 102): (0.0051361822023949285, 0.9895641163250931, 0.005299701472511992),
    (6, 2, 1, 60, 103): (0.005538463383770233, 0.9847939643643211, 0.009667572251908625),
    (4, 1, 2, 8, 104): (0.16999775432292835, 0.6235122389400404, 0.20649000673703122),
}


@pytest.mark.parametrize("cell", list(GOLDEN_NEUTRALITY))
def test_neutrality_scan_is_bit_identical_to_golden(cell):
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    assert neutrality_scan(L, walks=40, length=20, seed=7) == GOLDEN_NEUTRALITY[cell]
