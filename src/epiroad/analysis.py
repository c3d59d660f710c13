"""Walk-based landscape metrics.

Random walks estimate the fitness autocorrelation function and its
correlation length; greedy adaptive walks estimate local-optima fitness and
spacing; neutrality scans classify every neighbor of every visited genotype
as lower, equal or higher in fitness.

All walks draw uniformly from the operation neighborhood (insertions,
substitutions, deletions). Moves that would exceed the walk's length cap are
re-drawn, so the step distribution stays uniform over feasible moves.
Campaigns give each walk its own child random stream derived from
(campaign seed, walk index); pooled results are therefore identical no
matter how walks are scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .genotype import (
    Genotype,
    neighbor_matrix,
    random_genotype,
    random_neighbor,
    row_to_genotype,
)
from .seeds import STREAM_ADAPTIVE_WALK, STREAM_NEUTRALITY, STREAM_RANDOM_WALK, make_rng


@dataclass(frozen=True)
class RandomWalkCampaign:
    """Pool of fitness series from random walks.

    ``lambda_max`` bounds both the start genotypes and the walk itself; when
    None it defaults to 2 * n_letters * b of the target landscape.
    """

    walks: int = 20_000
    length: int = 35
    lambda_max: int | None = None
    s_max: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.walks < 1 or self.length < 0:
            raise ValueError("walks must be >= 1 and length >= 0")
        if not 0 <= self.s_max <= self.length:
            raise ValueError(f"s_max must lie in [0, length={self.length}], got {self.s_max}")


@dataclass(frozen=True)
class AdaptiveWalkCampaign:
    walks: int = 2_000
    lambda_max: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.walks < 1 or self.lambda_max < 0:
            raise ValueError("walks must be >= 1 and lambda_max >= 0")


@dataclass
class WalkStats:
    """Pooled campaign outcomes; only the fields of the campaign type are set.

    Skewness and excess kurtosis describe the shape of the local-optima
    fitness distribution; they are reported, never asserted against.
    """

    rho: tuple[float, ...] | None = None
    tau: float | None = None
    optima_fitness_mean: float | None = None
    optima_fitness_std: float | None = None
    optima_fitness_skewness: float | None = None
    optima_fitness_kurtosis: float | None = None
    mean_walk_length: float | None = None
    est_optima_distance: float | None = None
    neutrality: tuple[float, float, float] | None = None


def _walk_cap(landscape, lambda_max: int | None) -> int:
    cap = 2 * landscape.n_letters * landscape.b if lambda_max is None else lambda_max
    if cap > landscape.lambda_max:
        raise ValueError(
            f"walk bound {cap} exceeds landscape lambda_max={landscape.lambda_max}"
        )
    return cap


def evaluate_rows(landscape, rows: np.ndarray) -> np.ndarray:
    """Fitness of every row of a padded genotype matrix."""
    if hasattr(landscape, "evaluate_rows"):
        return landscape.evaluate_rows(rows)
    return np.array([landscape.evaluate(row_to_genotype(r)) for r in rows])


def random_walk(
    landscape,
    start: Genotype,
    length: int,
    rng: np.random.Generator,
    lambda_max: int | None = None,
) -> np.ndarray:
    """Fitness series along a uniform neighbor walk; length + 1 values."""
    cap = _walk_cap(landscape, lambda_max)
    g = tuple(start)
    series = np.empty(length + 1)
    series[0] = landscape.evaluate(g)
    for t in range(1, length + 1):
        g = random_neighbor(g, landscape.n_letters, rng, lambda_max=cap)
        series[t] = landscape.evaluate(g)
    return series


def autocorrelation(
    series_pool, lag: int, per_walk: bool = False, centering: str = "walk"
) -> float:
    """Autocorrelation of pooled fitness series at the given lag.

    With the default walk centering, each series is centered by its own mean
    and the centered lag products and squares are pooled:

        rho(s) = sum_w sum_t c_w(t) c_w(t+s) / sum_w sum_t c_w(t)^2

    so lag 0 yields exactly 1 and the estimate ignores fitness-level
    differences between walks. ``centering="pool"`` instead centers by the
    grand mean and scales by the pooled variance; on short walks that drift
    (variable-length spaces grow under insertion pressure) that estimator
    can exceed 1 and leave the correlation length undefined, so it is kept
    for diagnostics only. A pool with no variation yields nan. ``per_walk``
    averages per-walk estimates, skipping constant walks.
    """
    arrs = [np.asarray(s, dtype=np.float64) for s in series_pool]
    if per_walk:
        vals = [autocorrelation([a], lag, centering=centering) for a in arrs]
        vals = [v for v in vals if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan
    if centering not in ("walk", "pool"):
        raise ValueError(f"centering must be 'walk' or 'pool', got {centering!r}")

    if centering == "pool":
        flat = np.concatenate(arrs)
        if flat.size == 0 or np.all(flat == flat[0]):
            return math.nan
        mu = float(flat.mean())

        def lag_product_mean(s: int) -> float:
            num = 0.0
            count = 0
            for a in arrs:
                if a.size > s:
                    num += float((a[: a.size - s] * a[s:]).sum())
                    count += a.size - s
            return num / count if count else math.nan

        var = lag_product_mean(0) - mu * mu
        if not var > 0.0:
            return math.nan
        num = lag_product_mean(lag)
        return math.nan if math.isnan(num) else (num - mu * mu) / var

    num = 0.0
    den = 0.0
    valid = 0
    for a in arrs:
        if a.size == 0 or np.all(a == a[0]):
            continue  # constant walks carry no correlation signal
        c = a - a.mean()
        den += float((c * c).sum())
        if a.size > lag:
            num += float((c[: c.size - lag] * c[lag:]).sum())
            valid += a.size - lag
    if den <= 0.0 or valid == 0:
        return math.nan
    return num / den


def correlation_length(rho1: float) -> float:
    """-1 / ln(rho(1)); defined only for rho(1) strictly between 0 and 1."""
    if not 0.0 < rho1 < 1.0:
        return math.nan
    return -1.0 / math.log(rho1)


def run_random_walk_campaign(landscape, campaign: RandomWalkCampaign):
    """(WalkStats, raw) with rho for lags 0..s_max and tau from rho(1)."""
    cap = _walk_cap(landscape, campaign.lambda_max)
    series = np.empty((campaign.walks, campaign.length + 1))
    for w in range(campaign.walks):
        rng = make_rng(campaign.seed, STREAM_RANDOM_WALK, w)
        start = random_genotype(cap, landscape.n_letters, rng)
        series[w] = random_walk(landscape, start, campaign.length, rng, lambda_max=cap)
    rho = tuple(autocorrelation(series, s) for s in range(campaign.s_max + 1))
    tau = correlation_length(rho[1]) if campaign.s_max >= 1 else math.nan
    stats = WalkStats(rho=rho, tau=tau)
    return stats, {"series": series}


def adaptive_walk(
    landscape,
    start: Genotype,
    rng: np.random.Generator,
    lambda_max: int | None = None,
) -> tuple[Genotype, float, int]:
    """Greedy walk to a local optimum: (final genotype, final fitness, moves).

    Each step evaluates every operation-neighbor within the length cap and
    moves, uniformly among them, to a neighbor of maximal fitness, but only
    if that maximum strictly improves on the current fitness; otherwise the
    walk stops. Equal-fitness neighbors never continue the walk.
    """
    cap = _walk_cap(landscape, lambda_max)
    g = tuple(start)
    f = landscape.evaluate(g)
    steps = 0
    while True:
        mat = neighbor_matrix(g, landscape.n_letters, lambda_max=cap)
        if mat.shape[0] == 0:
            break
        fits = evaluate_rows(landscape, mat)
        best = fits.max()
        if not best > f:
            break
        cand = np.flatnonzero(fits == best)
        pick = int(cand[rng.integers(len(cand))]) if len(cand) > 1 else int(cand[0])
        g = row_to_genotype(mat[pick])
        f = float(best)
        steps += 1
    return g, f, steps


def local_optima_stats(final_fitnesses, lengths) -> WalkStats:
    """Mean/std/shape of walk endpoints plus the doubled-mean-length distance."""
    finals = np.asarray(final_fitnesses, dtype=np.float64)
    lens = np.asarray(lengths, dtype=np.float64)
    if finals.size < 2 or lens.size != finals.size:
        raise ValueError("need at least 2 walks with matching lengths")
    mean_len = float(lens.mean())
    mu = float(finals.mean())
    sd = float(finals.std())
    c = finals - mu
    skew = float((c**3).mean() / sd**3) if sd > 0 else math.nan
    kurt = float((c**4).mean() / sd**4 - 3.0) if sd > 0 else math.nan
    return WalkStats(
        optima_fitness_mean=mu,
        optima_fitness_std=sd,
        optima_fitness_skewness=skew,
        optima_fitness_kurtosis=kurt,
        mean_walk_length=mean_len,
        est_optima_distance=2.0 * mean_len,
    )


def run_adaptive_walk_campaign(landscape, campaign: AdaptiveWalkCampaign):
    """(WalkStats, raw) over greedy walks from random starts."""
    finals = np.empty(campaign.walks)
    lengths = np.empty(campaign.walks, dtype=np.int64)
    endpoints: list[Genotype] = []
    for w in range(campaign.walks):
        rng = make_rng(campaign.seed, STREAM_ADAPTIVE_WALK, w)
        start = random_genotype(campaign.lambda_max, landscape.n_letters, rng)
        g, f, steps = adaptive_walk(landscape, start, rng, lambda_max=campaign.lambda_max)
        finals[w] = f
        lengths[w] = steps
        endpoints.append(g)
    heuristic = landscape.n_letters * (landscape.b + 2)
    if lengths.max() > heuristic:
        warnings.warn(
            f"adaptive walk length {int(lengths.max())} exceeded the review bound "
            f"{heuristic} (n_letters * (b + 2)); inspect the campaign",
            stacklevel=2,
        )
    stats = local_optima_stats(finals, lengths)
    raw = {"final_fitness": finals, "lengths": lengths, "endpoints": endpoints}
    return stats, raw


def classify_neighbors(landscape, g: Genotype, f: float, lambda_max: int):
    """(lower, equal, higher) neighbor counts plus the neighbor batch itself."""
    mat = neighbor_matrix(g, landscape.n_letters, lambda_max=lambda_max)
    fits = evaluate_rows(landscape, mat)
    lower = int((fits < f).sum())
    higher = int((fits > f).sum())
    equal = len(fits) - lower - higher
    return (lower, equal, higher), mat, fits


def neighbor_class_counts(landscape, g: Genotype, f: float, lambda_max: int):
    """(lower, equal, higher) counts over all within-cap operation-neighbors.

    Landscapes with a block-vector fitness table go through the run-structure
    kernel, others through a full batch evaluation. Both paths count the
    identical operation multiset.
    """
    if hasattr(landscape, "bv_fitness"):
        return tuple(int(v) for v in _class_counts_batch(landscape, [g], [f], lambda_max)[0])
    (counts, _, _) = classify_neighbors(landscape, g, f, lambda_max)
    return counts


def _class_counts_batch(landscape, genotypes, fits, cap: int) -> np.ndarray:
    """(M, 3) lower/equal/higher counts for the operation-neighbors of M genotypes.

    Edits with one outcome form a group that costs one lookup in the
    landscape's block-vector fitness table; all groups share one gather.
    """
    owner, nb, mult = _edit_groups(genotypes, landscape.n_letters, landscape.b, cap)
    fv = landscape.bv_fitness[nb]
    fp = np.asarray(fits, dtype=np.float64)[owner]
    moved = np.flatnonzero(fv != fp)
    m = len(genotypes)
    lower, higher = np.bincount(2 * owner[moved] + (fv[moved] > fp[moved]), weights=mult[moved],
                                minlength=2 * m).astype(np.int64).reshape(-1, 2).T
    total = np.bincount(owner, weights=mult, minlength=m).astype(np.int64)
    return np.stack([lower, total - lower - higher, higher], axis=1)


def _edit_groups(genotypes, n: int, b: int, cap: int):
    """(genotype index, block vector, multiplicity) of each group of edits.

    An edit only changes the runs at its site: it splits or shortens the run
    of the letter it removes, and extends, bridges or opens a run of the
    letter it writes. A neighbor's block vector is therefore the current one
    with the removed letter's bit recounted and, when its new run reaches b,
    the written letter's bit set.

    The genotypes are laid out in one flat array, each followed by the
    bit-less sentinel letter n, whose slot stands for the end gap. Each slot
    holds n insertions before it and n substitutions of it, the incumbent
    letter's column holding the deletion. Insertions drop out at the cap.
    """
    lams = np.fromiter(map(len, genotypes), np.int64, len(genotypes))
    size = int(lams.sum()) + len(lams)
    flat = np.fromiter(chain.from_iterable(tuple(g) + (n,) for g in genotypes), np.int16, size)
    heads = np.cumsum(lams + 1) - lams - 1
    gid = np.repeat(np.arange(len(lams)), lams + 1)

    # runs from change points; a genotype's head always opens one
    new = np.ones(size, bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[heads] = True
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    rlen = np.diff(starts, append=size)
    rlet = flat[starts]
    first = np.zeros(len(starts), bool)
    first[run[heads]] = True
    left = np.where(first, -1, np.roll(rlet, 1))  # letter -1 matches none
    left_len = np.where(first, 0, np.roll(rlen, 1))
    qualifying = np.bincount((gid[starts] * (n + 1) + rlet)[rlen >= b],
                             minlength=len(lams) * (n + 1)).reshape(-1, n + 1)
    bit = np.append(1 << np.arange(n - 1, -1, -1, dtype=np.int32), 0)  # bit[n] = bit[-1] = 0
    every = (1 << n) - 1 if b == 1 else 0  # with b = 1 any written letter is a block

    ln, fl, fr = rlen[run], left[run], np.roll(rlet, -1)[run]
    nl, nr = left_len[run], np.roll(rlen, -1)[run]
    a = np.arange(size) - starts[run]  # offset in the run
    rest = ln - 1 - a
    others = qualifying[gid, flat] - (ln >= b)  # qualifying runs of the letter besides this one
    cur = ((qualifying > 0) @ bit)[gid]

    def recount(keeps):
        return np.where(keeps, cur, cur & ~bit[flat])

    def gain(letter, grows):
        return np.where(grows, bit[letter], 0)

    # kinds laid end to end: insertions before each slot, then substitutions of it
    bridge = (ln == 1) & (fl == fr)
    base = np.concatenate([recount(others + (a >= b) + (ln - a >= b) > 0),
                           recount(others + (a >= b) + (rest >= b) > 0)])
    # written at a run's head, the left flank's letter extends that flank; at
    # its end the right flank's, which for a bridged singleton is the same
    joins_left = gain(fl, (a == 0) & (nl + 1 >= b))
    written = np.concatenate([gain(flat, ln + 1 >= b) | joins_left,
                              joins_left | gain(fr, (rest == 0) & (nr + 1 + bridge * nl >= b))])
    gains = (written | every) & ~base
    gains[size:] &= ~bit[flat]  # the incumbent letter's column holds the deletion

    # a letter that gains no bit leaves the kind's base vector, so each slot
    # looks up one base per kind, its deletion and one vector per gaining letter
    at = np.flatnonzero(gains)
    letter, which = np.divmod(np.flatnonzero(bit[:n, None] & gains[at]), len(at))
    at = at[which]
    valid = np.concatenate([lams[gid] < cap, flat < n])  # no capped insertions or end-slot edits
    mult = (np.repeat([n, n - 1], size) - np.bincount(at, minlength=2 * size)) * valid
    dele = recount(others + (ln - 1 >= b) > 0) | gain(fl, bridge & (nl + nr >= b))
    return (np.concatenate([gid, gid, gid, gid[at % size]]),
            np.concatenate([base, dele, base[at] | bit[letter]]),
            np.concatenate([mult, valid[size:], valid[at]]))


def neutrality_scan(
    landscape,
    walks: int = 2_000,
    length: int = 20,
    seed: int = 0,
    lambda_max: int | None = None,
) -> tuple[float, float, float]:
    """Proportions of lower / equal / higher neighbors along random walks.

    Every genotype visited by every walk contributes all its within-cap
    operation-neighbors, compared against the current fitness with exact
    floating equality (safe because fitness factors through block vectors).
    Unlike the correlation campaign, the walks here roam the full search
    space: the cap defaults to the landscape's own lambda_max.
    """
    cap = _walk_cap(landscape, landscape.lambda_max if lambda_max is None else lambda_max)
    batch = hasattr(landscape, "bv_fitness")
    counts = np.zeros(3, np.int64)
    for w in range(walks):
        rng = make_rng(seed, STREAM_NEUTRALITY, w)
        g = random_genotype(cap, landscape.n_letters, rng)
        visited, fits = [g], [landscape.evaluate(g)]
        for _ in range(length):
            g = random_neighbor(g, landscape.n_letters, rng, lambda_max=cap)
            visited.append(g)
            fits.append(landscape.evaluate(g))
        # one kernel pass per walk: the pass's arrays, and so the scan's peak
        # memory, grow with the number of genotypes it classifies
        if batch:
            counts += _class_counts_batch(landscape, visited, fits, cap).sum(axis=0)
        else:
            for g, f in zip(visited, fits):
                counts += neighbor_class_counts(landscape, g, f, cap)
    lower, equal, higher = (int(c) for c in counts)
    total = lower + equal + higher
    return lower / total, equal / total, higher / total
