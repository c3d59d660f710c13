import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiroad import analysis, nk
from epiroad.analysis import (
    AdaptiveWalkCampaign,
    NeutralityCampaign,
    RandomWalkCampaign,
    _class_counts_batch,
    _lockstep_walks,
    _neighbor_fitness,
    _step_rows,
    _walk_rhos,
    adaptive_walk,
    autocorrelation,
    correlation_length,
    local_optima_stats,
    neighbor_class_counts,
    neutrality_scan,
    random_walk,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from epiroad.genotype import (
    PAD,
    BlockParams,
    decode_rows,
    neighbor_matrix,
    random_genotype,
    random_neighbor,
    row_to_genotype,
)
from epiroad.landscapes import BlockLandscape, er_build, royal_road
from epiroad.seeds import (
    STREAM_ADAPTIVE_START,
    STREAM_ADAPTIVE_WALK,
    STREAM_NEUTRALITY,
    STREAM_RANDOM_WALK,
    make_rng,
)


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
    L = royal_road(BlockParams(1, 1, 5))
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


def test_autocorrelation_zero_variance_undefined():
    assert math.isnan(autocorrelation([np.full(10, 0.3)], 1))
    assert math.isnan(autocorrelation([np.full(10, 0.3)], 0))


@pytest.mark.parametrize("series", [
    np.arange(10.0),  # one series is not a pool
    [np.arange(10.0), np.arange(9.0)],  # ragged
    np.zeros((2, 3, 4)),
])
def test_autocorrelation_rejects_non_matrix_input(series):
    with pytest.raises(ValueError):
        autocorrelation(series, 1)


@pytest.mark.parametrize("centering", ["walk", "pool"])
def test_autocorrelation_lag_beyond_walks_undefined(centering):
    pool = make_rng(7, 0).random((4, 6))
    assert not math.isnan(autocorrelation(pool, 5, centering=centering))
    assert math.isnan(autocorrelation(pool, 6, centering=centering))
    assert math.isnan(autocorrelation(np.empty((3, 0)), 0, centering=centering))
    with pytest.raises(ValueError, match="lag must be >= 0"):
        autocorrelation(pool, -1, centering=centering)


def loop_autocorrelation(pool, lag, centering):
    """Reference: one Python pass per walk, sums accumulated across walks in order."""
    rows = [np.asarray(a, dtype=np.float64) for a in pool]
    if centering == "pool":
        flat = np.concatenate(rows)
        if np.all(flat == flat[0]):
            return math.nan
        mu = float(flat.mean())
        lag_mean = [sum(float((a[: a.size - s] * a[s:]).sum()) for a in rows)
                    / (len(rows) * (rows[0].size - s)) for s in (0, lag)]
        var = lag_mean[0] - mu * mu
        return (lag_mean[1] - mu * mu) / var if var > 0.0 else math.nan
    num = den = 0.0
    for a in rows:
        if np.all(a == a[0]):
            continue
        c = a - a.mean()
        den += float((c * c).sum())
        num += float((c[: c.size - lag] * c[lag:]).sum())
    return num / den if den > 0.0 else math.nan


@given(st.integers(1, 40), st.integers(2, 12), st.integers(0, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_autocorrelation_equals_walk_loop(walks, steps, constant, seed):
    rng = make_rng(seed, 2)
    pool = rng.random((walks, steps)) * rng.integers(1, 4, size=(walks, 1))
    pool[: min(constant, walks)] = 0.25  # constant walks carry no signal
    for centering in ("walk", "pool"):
        for lag in range(steps):
            expected = loop_autocorrelation(pool, lag, centering)
            got = autocorrelation(pool, lag, centering=centering)
            assert got == expected or math.isnan(got) and math.isnan(expected)


@given(st.integers(0, 30), st.integers(1, 12), st.integers(0, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
@example(0, 6, 0, 1)  # no walk at all
@example(4, 6, 4, 2)  # every walk constant
@example(3, 1, 0, 3)  # one step: every walk is constant
def test_once_centered_rho_equals_per_lag_autocorrelation(walks, steps, constant, seed):
    # the campaign centers its series once and reads every lag from it
    rng = make_rng(seed, 3)
    pool = rng.random((walks, steps)) * rng.integers(1, 4, size=(walks, 1))
    pool[: min(constant, walks)] = 0.25
    rhos = _walk_rhos(pool, range(steps + 3))  # lags >= steps are not reached
    for lag, got in enumerate(rhos):
        expected = autocorrelation(pool, lag)
        reference = loop_autocorrelation(pool, lag, "walk") if lag < steps else math.nan
        assert got == expected or math.isnan(got) and math.isnan(expected)
        assert got == reference or math.isnan(got) and math.isnan(reference)


@pytest.mark.parametrize("b, constant", [(1, 3), (4, 35)])
def test_campaign_rho_equals_per_lag_autocorrelation(b, constant):
    # constant walks carry no signal: the campaign drops them as autocorrelation does
    L = er_build(5, 2, b, 60, seed=31)
    stats, raw = run_random_walk_campaign(L, RandomWalkCampaign(walks=40, length=8, s_max=8,
                                                                seed=5))
    assert np.all(raw["series"] == raw["series"][:, :1], axis=1).sum() == constant
    assert stats.rho == tuple(autocorrelation(raw["series"], s) for s in range(9))


# rho(0..20) of the format-2 campaign on er_build(n, k, b, lambda_max, seed) with
# walks=300, length=35 and the campaign seed = seed, as the per-walk loop of the
# autocorrelation computed it: walk centering, and pool centering over the raw
# series. 101 and 244 of the walks of the first and last cell are constant.
GOLDEN_RHO = {
    (10, 5, 3, 100, 211): {
        "walk": (1.0, 0.777974944387385, 0.5954723831014156, 0.4592132367903026,
                 0.348284701650343, 0.24680961586977293, 0.16104451648104684,
                 0.08477430582750008, 0.024368723916616795, -0.025954630244696665,
                 -0.07848130552522874, -0.12563692400922874, -0.165916841839821,
                 -0.1914708514804391, -0.1976904263870816, -0.2014931770617889,
                 -0.20293224448809094, -0.19709006795968592, -0.1909103803226239,
                 -0.1809588495387353, -0.1746617492742393),
        "pool": (1.0, 0.8724147485236969, 0.7695752101684195, 0.6963569991964224,
                 0.6296555665957745, 0.5605073064359392, 0.49999532320100654,
                 0.4231305992509433, 0.3711618525834348, 0.3438363031106638,
                 0.30639835766786555, 0.2761047634609608, 0.23843906826655925,
                 0.2168113607087856, 0.22354163665114224, 0.23380951292797994,
                 0.25034286138513434, 0.28551443943092597, 0.32584941007951335,
                 0.3748265099093352, 0.4248723613242502),
    },
    (8, 0, 1, 60, 212): {
        "walk": (1.0, 0.812678947622577, 0.6552186250968178, 0.5255138454045484,
                 0.4140541856796899, 0.3163939666028835, 0.2346366985505142,
                 0.1658004689371165, 0.10624979005215779, 0.054900837076449646,
                 0.009782197929689606, -0.03144884201082441, -0.06944776831791151,
                 -0.09905538768670678, -0.1259558203014561, -0.1464727725944556,
                 -0.16434778040657347, -0.18047771219287492, -0.1935643715030226,
                 -0.20480459124837758, -0.21565876393195743),
        "pool": (1.0, 1.0276926637598836, 1.0650430770246222, 1.0954872943292597,
                 1.1162255620023473, 1.114093740664755, 1.0910198989017026,
                 1.07986279181794, 1.0388856722147477, 0.9894391108133945,
                 0.9461552234470356, 0.8934723590570196, 0.8235714657103236,
                 0.7282529458340629, 0.6686561340967702, 0.5532978383250818,
                 0.41613308260853493, 0.24342546090799247, 0.028074879608690484,
                 -0.20987135345161473, -0.4457696095532595),
    },
    (8, 7, 4, 100, 213): {
        "walk": (1.0, 0.7609002253715601, 0.5620905303779657, 0.4074098681086274,
                 0.2785260396510369, 0.1641649888249655, 0.08874927541794345,
                 0.02687603741615479, -0.00969173814243152, -0.03756177522585497,
                 -0.06256654376022625, -0.08763907672418131, -0.10843535039579788,
                 -0.127164398321493, -0.1414239481616805, -0.15334843256759462,
                 -0.16782886173118636, -0.17692844825245457, -0.18260904245904297,
                 -0.1882896366656314, -0.19481896527815068),
        "pool": (1.0, 0.9217029527569207, 0.8766523529189821, 0.8453640698136912,
                 0.8261746230148369, 0.8260473592148525, 0.8358559197937623,
                 0.8077593308394578, 0.7929596977114187, 0.7769981184035453,
                 0.7705478380696612, 0.7634500446851086, 0.7163461359371531,
                 0.6713124829853635, 0.6002560080953778, 0.5000058557818131,
                 0.41740803809113575, 0.3519514746351977, 0.2828141373409165,
                 0.2055429956619479, 0.11760976937840333),
    },
}


def format2_campaign_series(landscape, walks, length, seed, cap):
    """Stream format 2's random-walk campaign: per walk a start genotype, then scalar moves."""
    series = np.empty((walks, length + 1))
    for w in range(walks):
        rng = make_rng(seed, STREAM_RANDOM_WALK, w)
        start = random_genotype(cap, landscape.n_letters, rng)
        series[w] = random_walk(landscape, start, length, rng, lambda_max=cap)
    return series


def rho_by_centering(series):
    return {centering: tuple(autocorrelation(series, s, centering=centering) for s in range(21))
            for centering in ("walk", "pool")}


@pytest.mark.parametrize("cell", list(GOLDEN_RHO))
def test_random_campaign_rho_is_bit_identical_to_golden(cell):
    # the scalar oracles random_genotype and random_walk still draw format 2
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    series = format2_campaign_series(L, 300, 35, seed, cap=2 * n * b)
    assert rho_by_centering(series) == GOLDEN_RHO[cell]


def format4_draws(seed, stream, walks, width):
    """Stream formats 3 and 4: walk w's uniforms from its own stream (seed, stream, w)."""
    return np.stack([make_rng(seed, stream, w).random(width) for w in range(walks)])


def campaign_draws(seed, stream, walks, width):
    """Stream format 5: walk w's uniforms are row w of the campaign's one stream."""
    return make_rng(seed, stream).random((walks, width))


def lockstep_from_draws(landscape, u, length, cap):
    """Yield ``(rows, lams, fitness)`` at t = 0..length of walks that read the rows of ``u``."""
    n = landscape.n_letters
    rows, lams = decode_rows(u, n, cap)
    for t in range(length + 1):
        if t:
            _step_rows(rows, lams, u[:, cap + t], n, cap)
        yield rows, lams, landscape.evaluate_rows(rows)


def format4_campaign_series(landscape, walks, length, seed, cap):
    """Stream format 4's random-walk campaign: the lockstep steps over per-walk draws."""
    u = format4_draws(seed, STREAM_RANDOM_WALK, walks, 1 + cap + length)
    return np.stack([fits for _, _, fits in lockstep_from_draws(landscape, u, length, cap)], 1)


# the same cells and campaigns under stream formats 3 and 4, as the lockstep campaign
# computed them; 99 and 244 of the walks of the first and last cell are constant
GOLDEN_RHO_FORMAT_3 = {
    (10, 5, 3, 100, 211): {
        "walk": (1.0, 0.8041345698415403, 0.6388489218232299, 0.50900788166195,
                 0.3991229125984624, 0.29872373018255394, 0.21642405798714812,
                 0.13928345212866808, 0.06529185863249239, 0.0032852449065162615,
                 -0.05285513102945892, -0.09680848846275811, -0.1337938227590753,
                 -0.15862138569479342, -0.1790858352316097, -0.1924640594287153,
                 -0.20399967772697128, -0.21041902041841531, -0.21519390987230344,
                 -0.21257938652421635, -0.20574066552828532),
        "pool": (1.0, 0.9180077180139457, 0.8490848384220413, 0.7957154354914237,
                 0.7402100949341398, 0.69625321720723, 0.6566257042091844, 0.6073921696714838,
                 0.5640973782122913, 0.5358985003013897, 0.5144267708387875,
                 0.4879465687041579, 0.46138665454397815, 0.4592008636524252,
                 0.4428176981944219, 0.4280026031686178, 0.40086106638403285,
                 0.3608579823833656, 0.274003078644335, 0.18487221795239767,
                 0.13900987041202847),
    },
    (8, 0, 1, 60, 212): {
        "walk": (1.0, 0.8059330348295078, 0.6450157705492143, 0.5139916935133142,
                 0.4016109167911802, 0.3069600284590143, 0.22552771534844757,
                 0.14709522073158043, 0.08527675133228993, 0.036716588697231364,
                 -0.004954367944185974, -0.04158386040595855, -0.07891492685549609,
                 -0.10776232378551784, -0.1306415626438044, -0.14990119123962944,
                 -0.1623197164394425, -0.17232326320970717, -0.18026563998725895,
                 -0.18534315267150092, -0.19397432979873044),
        "pool": (1.0, 1.0440299844295822, 1.0831134893509784, 1.116146049626284,
                 1.1327976507006774, 1.1496711056337419, 1.1515092735343282,
                 1.1366024380381992, 1.0943145696977445, 1.0617303476295208,
                 1.009588814550522, 0.9465117546203123, 0.8635859801067094,
                 0.7830268747213913, 0.6836594103374651, 0.5392945903741907,
                 0.384790868794876, 0.23115753742275275, 0.061479329974674125,
                 -0.12397604407759559, -0.3360835113848378),
    },
    (8, 7, 4, 100, 213): {
        "walk": (1.0, 0.7897889733468519, 0.6178487110229441, 0.46212074693962646,
                 0.3354738342331443, 0.23166121759247044, 0.14555270985053767,
                 0.06819756207725532, 0.00515953635312697, -0.03300769425942032,
                 -0.06610105829701932, -0.10378757768798905, -0.1331455695031577,
                 -0.16165285910807822, -0.17634808132756008, -0.18080342977230135,
                 -0.185799045059948, -0.18890821159638288, -0.19515371667346537,
                 -0.1906305118795317, -0.18793240816046808),
        "pool": (1.0, 0.8888611796289125, 0.8118971260244972, 0.7365595976147802,
                 0.6581132279295618, 0.5952624040080607, 0.5376632586222835,
                 0.49070915127270415, 0.4139413643464197, 0.37517538946010887,
                 0.32304417871823043, 0.26618300580396903, 0.24040127510347065,
                 0.22252390879873316, 0.20289630606437709, 0.17364718852527822,
                 0.17867771134071242, 0.1695805726121652, 0.15086318264123547,
                 0.1438715968532858, 0.1388737022308109),
    },
}


@pytest.mark.parametrize("cell", list(GOLDEN_RHO_FORMAT_3))
def test_lockstep_campaign_rho_is_bit_identical_to_golden(cell):
    # the lockstep steps over stream format 4's per-walk draws
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    series = format4_campaign_series(L, 300, 35, seed, cap=2 * n * b)
    assert rho_by_centering(series) == GOLDEN_RHO_FORMAT_3[cell]


# the same cells and campaigns under stream format 5, as the campaign computes them;
# 118 and 242 of the walks of the first and last cell are constant
GOLDEN_RHO_FORMAT_5 = {
    (10, 5, 3, 100, 211): {
        "walk": (1.0, 0.7816877305178884, 0.6073787662777979, 0.4593778964562204,
                 0.32589730848499265, 0.2138496898001636, 0.13402867399480117, 0.06717578049780988,
                 0.012331640294369456, -0.03689090719113782, -0.07873230374918043,
                 -0.11558354743003162, -0.14445366103194549, -0.1660587171916569,
                 -0.1777705702925856, -0.18427545058634032, -0.18614947986751018,
                 -0.18651697125075498, -0.18638842024920438, -0.18184379043062704,
                 -0.17317998902357254),
        "pool": (1.0, 0.930825906319181, 0.8701763887712941, 0.7991820559354129, 0.727656580641267,
                 0.6710291920555663, 0.6172638332764522, 0.5890301987734698, 0.5599405389216201,
                 0.5266749213953564, 0.506363787738668, 0.4710651522686099, 0.4254990836355736,
                 0.3570071723306281, 0.3224376586759797, 0.30142874954675214, 0.29430461251974954,
                 0.32195075994571176, 0.3575578047388097, 0.40173038920033455,
                 0.45078399455925394),
    },
    (8, 0, 1, 60, 212): {
        "walk": (1.0, 0.7985431026922624, 0.6350554368196393, 0.4992747856409963,
                 0.3844494511806296, 0.2859642441087935, 0.20038989620068776, 0.13256108797646085,
                 0.07773705334888102, 0.031063026558151824, -0.008115058973674164,
                 -0.03912880443729401, -0.07018435100843003, -0.09687363657982055,
                 -0.12356940441491118, -0.1435233181655861, -0.1572404092073235,
                 -0.17036562834902158, -0.18197087366672074, -0.1923371858474619,
                 -0.1994030577696689),
        "pool": (1.0, 1.0240533705887072, 1.041917726544524, 1.0623531970041744,
                 1.0821041619134268, 1.1015517915617583, 1.122450893904544, 1.138148378072492,
                 1.1147057133168115, 1.0775662900774505, 1.0363262620130098, 0.9786192298945341,
                 0.9183535302296079, 0.8345517977551333, 0.7295643273414785, 0.5980911681637499,
                 0.445048449528517, 0.2794243087153277, 0.09893541569946744, -0.10105421338339024,
                 -0.32285753982416787),
    },
    (8, 7, 4, 100, 213): {
        "walk": (1.0, 0.809132273110653, 0.6387794180771261, 0.4811046163348258,
                 0.3594874774361695, 0.24813476998065612, 0.143788543428207, 0.05432039634299659,
                 -0.012625659451254403, -0.06471704769216807, -0.10463818719931647,
                 -0.13475930608912626, -0.16124508489714584, -0.18416289271810996,
                 -0.2009371084045386, -0.21820905204307162, -0.2253454889570397,
                 -0.21796284208798455, -0.21021366759975285, -0.20218805804796747,
                 -0.1879182296340954),
        "pool": (1.0, 0.9581591073466172, 0.9185478727160906, 0.8871675434881483,
                 0.856689144180695, 0.8263988509674599, 0.7939699824969081, 0.7634982833065411,
                 0.7511561534143414, 0.7413576101826067, 0.7514056851289467, 0.7472133608733716,
                 0.7377782944233775, 0.7246795892681174, 0.6977373824170919, 0.6153358810302452,
                 0.519422612296253, 0.42515900425578534, 0.3382815017813168, 0.24145582660100115,
                 0.11936388891211791),
    },
}


@pytest.mark.parametrize("cell", list(GOLDEN_RHO_FORMAT_5))
def test_format5_campaign_rho_is_bit_identical_to_golden(cell):
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    stats, raw = run_random_walk_campaign(L, RandomWalkCampaign(walks=300, length=35, seed=seed))
    assert stats.rho == GOLDEN_RHO_FORMAT_5[cell]["walk"]
    assert rho_by_centering(raw["series"]) == GOLDEN_RHO_FORMAT_5[cell]


def feasible_moves(g, n, cap):
    """(kind, position, letter) of every feasible move, in the campaign's move order.

    Insertions gap-major and letter-minor (none at the cap), then at each
    position its substitutions in letter order and its deletion.
    """
    moves = [] if len(g) >= cap else [(0, gap, c) for gap in range(len(g) + 1) for c in range(n)]
    for p in range(len(g)):
        moves += [(1, p, c) for c in range(n) if c != g[p]] + [(2, p, PAD)]
    return moves


def apply_move(g, move):
    kind, p, c = move
    return g[:p] + ((c,) if kind < 2 else ()) + g[p + (kind > 0):]


def tuple_start(u, n, cap):
    """The start genotype a walk decodes from its uniforms: length, then letters."""
    return tuple(int(x * n) for x in u[1 : 1 + int(u[0] * (cap + 1))])


def tuple_walks(n, walks, length, seed, cap, stream):
    """Each walk's visited genotypes, one tuple walk at a time from its row of campaign draws."""
    for u in campaign_draws(seed, stream, walks, 1 + cap + length).tolist():
        g = tuple_start(u, n, cap)
        visited = [g]
        for t in range(length):
            moves = feasible_moves(g, n, cap)
            g = apply_move(g, moves[int(u[cap + 1 + t] * len(moves))])
            assert len(g) <= cap
            visited.append(g)
        yield visited


def tuple_campaign_series(landscape, walks, length, seed, cap):
    """The campaign's series, one tuple walk at a time from the same draws."""
    visits = tuple_walks(landscape.n_letters, walks, length, seed, cap, STREAM_RANDOM_WALK)
    return np.array([[landscape.evaluate(g) for g in visited] for visited in visits])


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 8), st.integers(1, 6),
       st.integers(0, 25), st.integers(0, 10_000), st.booleans())
@example(1, 1, 1, 3, 20, 0, False)  # one letter; every walk keeps reaching the cap
@example(3, 2, 2, 4, 20, 1, True)
@example(2, 5, 0, 3, 0, 2, False)  # lambda_max = 0 allows walks of length 0 only
@settings(max_examples=120, deadline=None)
def test_lockstep_campaign_equals_tuple_walks(n, b, cap, walks, length, seed, royal):
    params = BlockParams(n, b, max(n * b, cap))
    L = royal_road(params) if royal else er_build(n, n // 2, b, params.lambda_max, seed=seed)
    if cap == 0 and length > 0:
        with pytest.raises(ValueError, match="no feasible neighbor"):
            RandomWalkCampaign(walks=walks, length=length, lambda_max=cap, s_max=0, seed=seed)
        return
    campaign = RandomWalkCampaign(walks=walks, length=length, lambda_max=cap, s_max=0, seed=seed)
    _, raw = run_random_walk_campaign(L, campaign)
    assert np.array_equal(raw["series"], tuple_campaign_series(L, walks, length, seed, cap))


def chi_square_bound(df):
    """Upper 1e-4 quantile of the chi-square distribution (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + 3.719 * math.sqrt(h)) ** 3


def assert_uniform(drawn, moves):
    counts = np.array([drawn.count(m) for m in moves])
    assert counts.sum() == len(drawn)  # every drawn move is feasible
    expected = len(drawn) / len(moves)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi_square_bound(len(moves) - 1)


class RecordingRng:
    """Passes draws through and keeps the last one."""

    def __init__(self, rng):
        self.rng, self.last = rng, None

    def integers(self, high):
        self.last = int(self.rng.integers(high))
        return self.last


# a mid-length genotype, the empty one and one at the cap, each with its cap
MOVE_CASES = [((0, 2, 2, 1, 0), 9), ((), 9), ((1, 1, 0, 2, 0, 2), 6)]


@pytest.mark.parametrize("g, cap", MOVE_CASES)
def test_lockstep_moves_are_uniform_over_feasible_moves(g, cap):
    n, draws = 3, 12_000
    rows = np.full((draws, cap + 2), PAD, np.int16)
    rows[:, : len(g)] = g
    lams = np.full(draws, len(g), np.int64)
    kind, pos, letter = _step_rows(rows, lams, make_rng(31, len(g)).random(draws), n, cap)
    drawn = list(zip(kind.tolist(), pos.tolist(), letter.tolist()))
    assert_uniform(drawn, feasible_moves(g, n, cap))
    for row, lam, move in zip(rows[:50], lams[:50], drawn[:50]):
        assert row_to_genotype(row) == apply_move(g, move) and len(apply_move(g, move)) == lam


@pytest.mark.parametrize("g, cap", MOVE_CASES)
def test_scalar_random_neighbor_is_uniform_over_feasible_moves(g, cap):
    # random_neighbor draws an operation index over all moves and re-draws
    # insertions at the cap; the accepted index is the move's place in the
    # full (uncapped) move order
    n, draws = 3, 12_000
    rng = RecordingRng(make_rng(32, len(g)))
    skip = (len(g) + 1) * n if len(g) >= cap else 0
    moves = feasible_moves(g, n, cap)
    drawn = []
    for _ in range(draws):
        neighbor = random_neighbor(g, n, rng, lambda_max=cap)
        drawn.append(moves[rng.last - skip])
        assert neighbor == apply_move(g, drawn[-1])
    assert_uniform(drawn, moves)


def test_lockstep_campaign_with_zero_cap_rejects_steps():
    L = er_build(4, 1, 2, 8, seed=15)
    with pytest.raises(ValueError, match="no feasible neighbor"):
        random_neighbor((), 4, make_rng(0, 0), lambda_max=0)
    with pytest.raises(ValueError, match="no feasible neighbor"):
        run_random_walk_campaign(L, RandomWalkCampaign(walks=3, length=1, lambda_max=0, s_max=0))
    _, raw = run_random_walk_campaign(L, RandomWalkCampaign(walks=3, length=0, lambda_max=0,
                                                            s_max=0))
    assert np.array_equal(raw["series"], np.full((3, 1), L.evaluate(())))
    # the kernel keeps its own check for callers that build no campaign
    with pytest.raises(ValueError, match="no feasible neighbor"):
        next(_lockstep_walks(L, 3, 1, 0, 0, STREAM_RANDOM_WALK))


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


def scalar_adaptive_campaign(landscape, campaign, tied=None):
    """(endpoints, finals, lengths) of scalar walks: start w from campaign row w, then a climb.

    Walk w breaks its ties from the stream (seed, STREAM_ADAPTIVE_WALK, w); the
    walks that draw from it are added to ``tied``.
    """
    cap, n = campaign.lambda_max, landscape.n_letters
    draws = campaign_draws(campaign.seed, STREAM_ADAPTIVE_START, campaign.walks, 1 + cap)
    walks = []
    for w, u in enumerate(draws.tolist()):
        rng = RecordingRng(make_rng(campaign.seed, STREAM_ADAPTIVE_WALK, w))
        walks.append(adaptive_walk(landscape, tuple_start(u, n, cap), rng, lambda_max=cap))
        if rng.last is not None and tied is not None:
            tied.add(w)
    ends, finals, lengths = zip(*walks)
    return list(ends), np.array(finals), np.array(lengths)


def lockstep_adaptive_campaign(landscape, campaign):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the walk-length review bound
        _, raw = run_adaptive_walk_campaign(landscape, campaign)
    return raw["endpoints"], raw["final_fitness"], raw["lengths"]


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 12), st.integers(2, 8),
       st.integers(1, 4), st.integers(0, 10_000), st.booleans())
@example(1, 1, 3, 4, 2, 0, False)  # one letter; walks climb to the cap
@example(2, 3, 0, 3, 2, 2, False)  # lambda_max = 0: every walk is the empty genotype and stays
@example(4, 1, 12, 6, 4, 5, True)  # Royal Road with b = 1: every missing letter ties
@settings(max_examples=120, deadline=None)
def test_lockstep_adaptive_campaign_equals_scalar_walks(n, b, cap, walks, block, seed, royal):
    # with fewer places than walks, later walks join as earlier ones stop
    params = BlockParams(n, b, max(n * b, cap))
    L = royal_road(params) if royal else er_build(n, n // 2, b, params.lambda_max, seed=seed)
    campaign = AdaptiveWalkCampaign(walks=walks, lambda_max=cap, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "ADAPTIVE_BLOCK", block)
        ends, finals, lengths = lockstep_adaptive_campaign(L, campaign)
    oracle_ends, oracle_finals, oracle_lengths = scalar_adaptive_campaign(L, campaign)
    assert ends == oracle_ends
    assert np.array_equal(finals, oracle_finals)
    assert np.array_equal(lengths, oracle_lengths)


@pytest.mark.parametrize("cap", [1, 9])
def test_campaign_starts_are_uniform(cap):
    # on a flat landscape no adaptive walk moves, so its endpoints are its starts
    n, walks = 3, 6000
    L = BlockLandscape(BlockParams(n, 1, 12), np.full(1 << n, 0.5), 0.5)
    # with length 0 nothing steps, so each block's rows stay its starts
    starts = [(rows[:, :cap], lams)
              for _, _, rows, lams, _ in _lockstep_walks(L, walks, 0, cap, 1, STREAM_RANDOM_WALK)]
    rows, lams = np.concatenate([r for r, _ in starts]), np.concatenate([m for _, m in starts])
    assert_uniform(lams.tolist(), list(range(cap + 1)))
    assert_uniform(rows[rows != PAD].tolist(), list(range(n)))
    ends, _, lengths = lockstep_adaptive_campaign(L, AdaptiveWalkCampaign(walks, cap, seed=2))
    assert not lengths.any()
    assert_uniform([len(g) for g in ends], list(range(cap + 1)))


def test_each_campaign_opens_one_stream_and_ties_their_own(monkeypatch):
    paths = []

    def make_rng_logged(*path):
        paths.append(path)
        return make_rng(*path)

    monkeypatch.setattr(analysis, "make_rng", make_rng_logged)
    L = er_build(6, 3, 1, 40, seed=3)
    # 600 walks span three blocks of WALK_BLOCK
    run_random_walk_campaign(L, RandomWalkCampaign(walks=600, length=5, s_max=2, seed=4))
    neutrality_scan(L, NeutralityCampaign(walks=600, length=3, seed=5))
    assert paths == [(4, STREAM_RANDOM_WALK), (5, STREAM_NEUTRALITY)]
    paths.clear()
    campaign = AdaptiveWalkCampaign(walks=200, lambda_max=20, seed=6)
    lockstep_adaptive_campaign(L, campaign)
    tied = set()
    scalar_adaptive_campaign(L, campaign, tied)
    assert 0 < len(tied) < campaign.walks
    # the starts' stream, then each walk's tie stream once, on its first tie
    assert paths[0] == (6, STREAM_ADAPTIVE_START)
    assert sorted(paths[1:]) == [(6, STREAM_ADAPTIVE_WALK, w) for w in sorted(tied)]


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


@pytest.mark.parametrize("cls, kw, error", [
    (RandomWalkCampaign, {"walks": True}, TypeError),
    (RandomWalkCampaign, {"length": 3.0}, TypeError),
    (RandomWalkCampaign, {"lambda_max": "x"}, TypeError),
    (RandomWalkCampaign, {"lambda_max": -1}, ValueError),
    (AdaptiveWalkCampaign, {"lambda_max": None}, TypeError),
    (AdaptiveWalkCampaign, {"lambda_max": -1}, ValueError),
    (AdaptiveWalkCampaign, {"walks": 0}, ValueError),
    (NeutralityCampaign, {"walks": "many"}, TypeError),
    (NeutralityCampaign, {"seed": 1.5}, TypeError),
    (NeutralityCampaign, {"length": -1}, ValueError),
    (NeutralityCampaign, {"lambda_max": -2}, ValueError),
    (AdaptiveWalkCampaign, {"walks": 1}, ValueError),
    # caps that allow no move: the walk or scan could not take a step
    (RandomWalkCampaign, {"lambda_max": 0}, ValueError),
    (RandomWalkCampaign, {"lambda_max": 0, "length": 1, "s_max": 0}, ValueError),
    (NeutralityCampaign, {"lambda_max": 0}, ValueError),
    (NeutralityCampaign, {"lambda_max": 0, "length": 0}, ValueError),
])
def test_campaigns_reject_wrong_types_and_ranges(cls, kw, error):
    with pytest.raises(error):
        cls(**kw)


def test_campaign_defaults_and_integer_types():
    assert (RandomWalkCampaign().walks, RandomWalkCampaign().s_max) == (20000, 20)
    assert AdaptiveWalkCampaign().lambda_max == 50
    assert NeutralityCampaign() == NeutralityCampaign(walks=2000, length=20, lambda_max=None)
    assert NeutralityCampaign(walks=np.int64(3), lambda_max=1).walks == 3
    assert RandomWalkCampaign(length=0, s_max=0, lambda_max=0).lambda_max == 0
    assert AdaptiveWalkCampaign(lambda_max=0).lambda_max == 0


def test_neutrality_constant_landscape_is_all_equal():
    L = BlockLandscape(BlockParams(3, 1, 12), np.full(1 << 3, 0.5), 0.5)
    triple = neutrality_scan(L, NeutralityCampaign(walks=5, length=5, seed=16))
    assert triple == (0.0, 1.0, 0.0)


def test_neutrality_proportions_sum_to_one():
    L = er_build(8, 4, 2, 100, seed=17)
    triple = neutrality_scan(L, NeutralityCampaign(walks=20, length=10, seed=18))
    assert abs(sum(triple) - 1.0) < 1e-9
    assert all(0.0 <= v <= 1.0 for v in triple)


def test_neutrality_scan_deterministic():
    L = er_build(8, 4, 3, 100, seed=19)
    a = neutrality_scan(L, NeutralityCampaign(walks=15, length=8, seed=20))
    b = neutrality_scan(L, NeutralityCampaign(walks=15, length=8, seed=20))
    assert a == b


def classify_neighbors(landscape, g, f, cap):
    """(lower, equal, higher) counts from the full neighbor matrix; the classifier's oracle."""
    fits = landscape.evaluate_rows(neighbor_matrix(g, landscape.n_letters, lambda_max=cap))
    lower, higher = int((fits < f).sum()), int((fits > f).sum())
    return lower, len(fits) - lower - higher, higher


def test_fast_class_counts_match_matrix_oracle():
    rng = make_rng(21, 0)
    for trial in range(150):
        n = int(rng.integers(2, 7))
        b = int(rng.integers(1, 4))
        k = int(rng.integers(0, n))
        params = BlockParams(n, b, max(2 * n * b, 30))
        L = royal_road(params) if trial % 3 == 0 else er_build(n, k, b, params.lambda_max,
                                                               seed=trial % 7)
        g = random_genotype(14, n, rng)
        cap = max(len(g), int(rng.integers(1, 16)))
        f = L.evaluate(g)
        oracle = classify_neighbors(L, g, f, cap)
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


def padded(genotypes, width=None):
    """(rows, lengths): the genotypes as rows of a PAD-padded matrix with width + 1 columns."""
    lams = np.array([len(g) for g in genotypes], np.int64)
    rows = np.full((len(genotypes), (int(lams.max()) if width is None else width) + 1), PAD,
                   np.int16)
    for row, g in zip(rows, genotypes):
        row[: len(g)] = g
    return rows, lams


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


@given(run_batches(), st.integers(0, 4), st.integers(0, 3), st.booleans())
@example((3, 3, [(0, 0, 1, 0, 0, 0), (), (2, 1, 2, 0, 1, 0), (1, 1, 0, 1)], 7), 2, 0, False)
@example((3, 3, [(0, 0, 1, 0, 0, 0), (), (2, 1, 2, 0, 1, 0), (1, 1, 0, 1)], 7), 2, 0, True)
@example((1, 1, [(0, 0), (), (0,)], 2), 0, 0, False)  # one letter, b = 1
@settings(max_examples=150, deadline=None)
def test_class_counts_batch_matches_matrix_oracle(batch, k, seed, royal):
    # the three-letter examples hold singleton bridges, on both landscape kinds
    n, b, genotypes, cap = batch
    params = BlockParams(n, b, max(n * b, cap))
    L = royal_road(params) if royal else er_build(n, min(k, n - 1), b, params.lambda_max,
                                                   seed=seed)
    fits = [L.evaluate(g) for g in genotypes]
    rows = _class_counts_batch(L, *padded(genotypes, cap + 1), fits, cap)
    assert rows.shape == (len(genotypes), 3)
    for g, f, row in zip(genotypes, fits, rows):
        oracle = classify_neighbors(L, g, f, cap)
        assert tuple(row) == oracle
        lam = len(g)
        assert row.sum() == (lam * n if lam >= cap else (2 * lam + 1) * n)


@given(run_batches(), st.integers(0, 4), st.integers(0, 3), st.booleans())
@example((3, 3, [(0, 0, 1, 0, 0, 0), (), (2, 1, 2, 0, 1, 0), (1, 1, 0, 1)], 7), 2, 0, False)
@example((1, 1, [(0, 0), (), (0,)], 2), 0, 0, True)  # one letter, b = 1, one at the cap
@example((2, 2, [()], 0), 0, 0, False)  # cap 0: no neighbor at all
@settings(max_examples=150, deadline=None)
def test_neighbor_fitness_matches_neighbor_matrix(batch, k, seed, royal):
    n, b, genotypes, cap = batch
    params = BlockParams(n, b, max(n * b, cap))
    L = royal_road(params) if royal else er_build(n, min(k, n - 1), b, params.lambda_max,
                                                   seed=seed)
    fits, counts = _neighbor_fitness(L, *padded(genotypes, cap + 1), cap)
    oracle = [L.evaluate_rows(neighbor_matrix(g, n, lambda_max=cap)) for g in genotypes]
    assert counts.tolist() == [len(f) for f in oracle]
    assert np.array_equal(fits, np.concatenate(oracle))  # row for row, order included


def proportions(counts):
    total = int(sum(counts))
    return tuple(int(c) / total for c in counts)


def format3_scan(landscape, walks, length, seed, cap):
    """Stream format 3's neutrality scan: per walk a start genotype, then scalar moves."""
    n, counts = landscape.n_letters, np.zeros(3, np.int64)
    for w in range(walks):
        rng = make_rng(seed, STREAM_NEUTRALITY, w)
        visited = [random_genotype(cap, n, rng)]
        for _ in range(length):
            visited.append(random_neighbor(visited[-1], n, rng, lambda_max=cap))
        fits = [landscape.evaluate(g) for g in visited]
        counts += _class_counts_batch(landscape, *padded(visited), fits, cap).sum(axis=0)
    return proportions(counts)


# neutrality_scan(er_build(n, k, b, lambda_max, seed), NeutralityCampaign(40, 20, seed=7)) under
# stream format 3, as the scalar classifier computed it; with lambda_max = 8 about a third
# of the visited genotypes sit at the cap
GOLDEN_NEUTRALITY = {
    (8, 4, 2, 100, 101): (0.07402531334205437, 0.8548060689408423, 0.07116861771710328),
    (8, 4, 4, 100, 102): (0.0051361822023949285, 0.9895641163250931, 0.005299701472511992),
    (6, 2, 1, 60, 103): (0.005538463383770233, 0.9847939643643211, 0.009667572251908625),
    (4, 1, 2, 8, 104): (0.16999775432292835, 0.6235122389400404, 0.20649000673703122),
}


@pytest.mark.parametrize("cell", list(GOLDEN_NEUTRALITY))
def test_neutrality_scan_is_bit_identical_to_golden(cell):
    # the scalar oracles random_genotype and random_neighbor still draw format 3
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    assert format3_scan(L, 40, 20, 7, cap=lambda_max) == GOLDEN_NEUTRALITY[cell]


def test_royal_road_neutrality_scan_is_bit_identical_to_golden():
    # format 3, as the neighbor-matrix classifier computed it
    L = royal_road(BlockParams(6, 2, 100))
    assert format3_scan(L, 40, 20, 301, cap=100) == \
        (0.049258015080466094, 0.8963514138414679, 0.05439057107806606)


def format4_scan(landscape, walks, length, seed, cap):
    """Stream format 4's neutrality scan: the lockstep steps over per-walk draws."""
    u = format4_draws(seed, STREAM_NEUTRALITY, walks, 1 + cap + length)
    counts = sum(_class_counts_batch(landscape, rows, lams, fits, cap).sum(axis=0)
                 for rows, lams, fits in lockstep_from_draws(landscape, u, length, cap))
    return proportions(counts)


# the same scans under stream format 4, as the lockstep scan computed them
GOLDEN_NEUTRALITY_FORMAT_4 = {
    (8, 4, 2, 100, 101): (0.05857007012956139, 0.8683409334039311, 0.07308899646650746),
    (8, 4, 4, 100, 102): (0.007420874620446711, 0.9866291885934106, 0.005949936786142658),
    (6, 2, 1, 60, 103): (0.006127046450888074, 0.9826381046694117, 0.011234848879700249),
    (4, 1, 2, 8, 104): (0.2053688475747825, 0.6014479799785485, 0.19318317244666905),
}
GOLDEN_ROYAL_NEUTRALITY_FORMAT_4 = (0.038365524311009834, 0.9137407169775142,
                                    0.047893758711475914)


@pytest.mark.parametrize("cell", list(GOLDEN_NEUTRALITY_FORMAT_4))
def test_lockstep_neutrality_scan_is_bit_identical_to_golden(cell):
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    assert format4_scan(L, 40, 20, 7, cap=lambda_max) == GOLDEN_NEUTRALITY_FORMAT_4[cell]


def test_royal_road_lockstep_neutrality_scan_is_bit_identical_to_golden():
    L = royal_road(BlockParams(6, 2, 100))
    assert format4_scan(L, 40, 20, 301, cap=100) == GOLDEN_ROYAL_NEUTRALITY_FORMAT_4


# the same scans under stream format 5, as neutrality_scan computes them
GOLDEN_NEUTRALITY_FORMAT_5 = {
    (8, 4, 2, 100, 101): (0.07164289925360683, 0.8538429237255142, 0.07451417702087898),
    (8, 4, 4, 100, 102): (0.007363819397323663, 0.9895285264574689, 0.0031076541452073995),
    (6, 2, 1, 60, 103): (0.008665402831741026, 0.9777984245859689, 0.013536172582290043),
    (4, 1, 2, 8, 104): (0.2072429365446966, 0.6015226956924502, 0.19123436776285319),
}
GOLDEN_ROYAL_NEUTRALITY_FORMAT_5 = (0.040011553892173125, 0.903711067636343, 0.05627737847148386)


@pytest.mark.parametrize("cell", list(GOLDEN_NEUTRALITY_FORMAT_5))
def test_format5_neutrality_scan_is_bit_identical_to_golden(cell):
    n, k, b, lambda_max, seed = cell
    L = er_build(n, k, b, lambda_max, seed=seed)
    campaign = NeutralityCampaign(walks=40, length=20, seed=7)
    assert neutrality_scan(L, campaign) == GOLDEN_NEUTRALITY_FORMAT_5[cell]


def test_royal_road_format5_neutrality_scan_is_bit_identical_to_golden():
    L = royal_road(BlockParams(6, 2, 100))
    campaign = NeutralityCampaign(walks=40, length=20, seed=301)
    assert neutrality_scan(L, campaign) == GOLDEN_ROYAL_NEUTRALITY_FORMAT_5


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 8), st.integers(1, 6),
       st.integers(0, 25), st.integers(0, 10_000), st.booleans())
@example(1, 1, 1, 3, 20, 0, False)  # one letter; every walk keeps reaching the cap
@example(3, 2, 2, 4, 20, 1, True)
@example(2, 5, 0, 3, 0, 2, False)  # lambda_max = 0: no neighbor at all, so the scan raises
@settings(max_examples=120, deadline=None)
def test_neutrality_scan_equals_classified_tuple_walks(n, b, cap, walks, length, seed, royal):
    params = BlockParams(n, b, max(n * b, cap))
    L = royal_road(params) if royal else er_build(n, n // 2, b, params.lambda_max, seed=seed)
    if cap == 0:
        with pytest.raises(ValueError, match="no feasible neighbor"):
            neutrality_scan(L, NeutralityCampaign(walks=walks, length=length, lambda_max=cap,
                                                  seed=seed))
        return
    counts = np.zeros(3, np.int64)
    for visited in tuple_walks(n, walks, length, seed, cap, STREAM_NEUTRALITY):
        for g in visited:
            counts += classify_neighbors(L, g, L.evaluate(g), cap)
    expected = proportions(counts)
    got = neutrality_scan(L, NeutralityCampaign(walks=walks, length=length, lambda_max=cap,
                                                seed=seed))
    assert got == expected


def test_walk_block_size_does_not_change_results(monkeypatch):
    # 300 walks span several blocks of the default sizes and 100 blocks of 3
    L = er_build(8, 4, 2, 40, seed=5)
    campaign = RandomWalkCampaign(walks=300, length=12, s_max=3, seed=6)

    def run():
        _, raw = run_random_walk_campaign(L, campaign)
        ends, finals, lengths = lockstep_adaptive_campaign(
            L, AdaptiveWalkCampaign(walks=300, lambda_max=40, seed=8))
        scan = neutrality_scan(L, NeutralityCampaign(walks=300, length=12, seed=7))
        return raw["series"].tobytes(), scan, ends, finals.tobytes(), lengths.tobytes()

    default = run()
    monkeypatch.setattr(analysis, "WALK_BLOCK", 3)
    monkeypatch.setattr(analysis, "ADAPTIVE_BLOCK", 3)
    assert run() == default


@pytest.mark.parametrize("walks, length", [(0, 5), (-1, 5), (3, -1)])
def test_neutrality_scan_rejects_bad_sizes(walks, length):
    with pytest.raises(ValueError, match="walks must be >= 1 and length >= 0"):
        neutrality_scan(er_build(4, 1, 2, 8, seed=1),
                        NeutralityCampaign(walks=walks, length=length))
