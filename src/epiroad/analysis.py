"""Walk-based landscape metrics.

Random walks estimate the fitness autocorrelation function and its
correlation length; greedy adaptive walks estimate local-optima fitness and
spacing; neutrality scans count the neighbors of every visited genotype that
are lower, equal or higher in fitness.

All walks draw uniformly from the operation neighborhood (insertions,
substitutions, deletions) within the walk's length cap. Every campaign steps
its walks together, a bounded number at a time, as the rows of a padded
matrix. Random-walk campaigns and neutrality scans pick each move directly
among the feasible ones; the scalar ``random_walk`` re-draws a move that would
exceed the cap, which leaves the same uniform distribution. Adaptive-walk
campaigns and neutrality scans read every neighbor's block vector from the run
structure around its edit site, with no neighbor matrix. An adaptive campaign
scores every neighbor of every row and breaks ties as the scalar
``adaptive_walk`` does; a walk leaves the matrix when it stops and the
campaign's next walk takes its row. A scan adds, step by step, the three class
totals of all its rows, one fitness lookup per group of edits with one
outcome. The scalar walks are kept as test oracles. Each campaign reads its
uniforms from one random stream in walk order, walk w taking row w of
``random((walks, D))`` (stream format 5); an adaptive walk that ties also
opens its own child stream, derived from (the seed argument, walk index).
Pooled results are therefore identical no matter how many walks step together.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .genotype import (
    NO_MOVE,
    PAD,
    Genotype,
    _letter_lut,
    check_field_types,
    decode_rows,
    neighbor_matrix,
    random_genotype,  # noqa: F401  (no caller here; benchmarks/recorder.py wraps this binding)
    random_neighbor,
    row_to_genotype,
)
from .seeds import (
    STREAM_ADAPTIVE_START,
    STREAM_ADAPTIVE_WALK,
    STREAM_NEUTRALITY,
    STREAM_RANDOM_WALK,
    make_rng,
)

# Walks stepped together; a campaign's peak memory grows with this, not with its walk count.
WALK_BLOCK = 256
# An adaptive walk scores all its (2 * lam + 1) * n neighbors at each step, so
# fewer of them step together.
ADAPTIVE_BLOCK = 64


def check_walk_sizes(walks: int, length: int) -> None:
    """The bound every walk campaign puts on its walk count and walk length."""
    if walks < 1 or length < 0:
        raise ValueError("walks must be >= 1 and length >= 0")


def _check_campaign(campaign) -> None:
    """Every field an int; a ``lambda_max`` that may be None, else >= 0."""
    check_field_types(campaign)
    if campaign.lambda_max is not None and campaign.lambda_max < 0:
        raise ValueError(f"lambda_max must be >= 0, got {campaign.lambda_max}")


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

    def __post_init__(self):
        _check_campaign(self)
        check_walk_sizes(self.walks, self.length)
        if not 0 <= self.s_max <= self.length:
            raise ValueError(f"s_max must lie in [0, length={self.length}], got {self.s_max}")
        if self.lambda_max == 0 and self.length > 0:
            raise ValueError(NO_MOVE)

    def cap(self, params) -> int:
        return _walk_cap(params, self.lambda_max)


@dataclass(frozen=True)
class AdaptiveWalkCampaign:
    walks: int = 2_000
    lambda_max: int = 50

    def __post_init__(self):
        _check_campaign(self)
        if self.walks < 2:  # local_optima_stats needs two endpoints
            raise ValueError(f"walks must be >= 2, got {self.walks}")

    def cap(self, params) -> int:
        return _walk_cap(params, self.lambda_max)


@dataclass(frozen=True)
class NeutralityCampaign:
    """Sizes of a neutrality scan; ``lambda_max`` None means the landscape's own."""

    walks: int = 2_000
    length: int = 20
    lambda_max: int | None = None

    def __post_init__(self):
        _check_campaign(self)
        check_walk_sizes(self.walks, self.length)
        if self.lambda_max == 0:  # even at length 0 the empty start has none to classify
            raise ValueError(NO_MOVE)

    def cap(self, params) -> int:
        # lambda_max is None (the landscape's own) or at least 1
        return _walk_cap(params, self.lambda_max or params.lambda_max)


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


def _walk_cap(params, lambda_max: int | None) -> int:
    """A walk's length cap: ``lambda_max``, or 2 * n_letters * b when it is None.

    It must fit the landscape's lambda_max. ``params`` is the landscape's
    ``BlockParams``, or the landscape itself, which has the same fields.
    """
    cap = 2 * params.n_letters * params.b if lambda_max is None else lambda_max
    if cap > params.lambda_max:
        raise ValueError(f"walk bound {cap} exceeds the landscape lambda_max={params.lambda_max}")
    return cap


def evaluate_rows(landscape, rows: np.ndarray) -> np.ndarray:
    """Fitness of every row of a padded genotype matrix."""
    return landscape.evaluate_rows(rows)


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


def autocorrelation(series, lag: int, centering: str = "walk") -> float:
    """Autocorrelation at the given lag of a ``(walks, steps)`` matrix of fitness series.

    With the default walk centering, each series is centered by its own mean
    and the centered lag products and squares are pooled:

        rho(s) = sum_w sum_t c_w(t) c_w(t+s) / sum_w sum_t c_w(t)^2

    so lag 0 yields exactly 1 and the estimate ignores fitness-level
    differences between walks; constant walks carry no signal and are
    dropped. ``centering="pool"`` instead centers by the grand mean and scales
    by the pooled variance; on short walks that drift (variable-length spaces
    grow under insertion pressure) that estimator can exceed 1 and leave the
    correlation length undefined, so it is kept for diagnostics only. A pool
    with no variation, or a lag the walks do not reach, yields nan.

    Sums are taken per walk, then across walks left to right.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"series must form a (walks, steps) matrix, got shape {x.shape}")
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if centering not in ("walk", "pool"):
        raise ValueError(f"centering must be 'walk' or 'pool', got {centering!r}")
    steps = x.shape[1]
    if lag >= steps:
        return math.nan
    if centering == "pool":
        if x.size == 0 or np.all(x == x.flat[0]):
            return math.nan
        mu = float(x.ravel().mean())
        var = _lagged_sum(x, 0) / x.size - mu * mu
        if not var > 0.0:
            return math.nan
        return (_lagged_sum(x, lag) / (x.shape[0] * (steps - lag)) - mu * mu) / var
    return _walk_rhos(x, (lag,))[0]


def _lagged_sum(a: np.ndarray, lag: int) -> float:
    """sum_w sum_t a[w, t] a[w, t + lag]: per walk, then across walks left to right."""
    row_sums = (a[:, : a.shape[1] - lag] * a[:, lag:]).sum(axis=1)
    return float(np.cumsum(row_sums)[-1]) if row_sums.size else 0.0


def _walk_rhos(x: np.ndarray, lags) -> tuple[float, ...]:
    """Walk-centered rho at each lag, as ``autocorrelation`` defines it.

    The walks are filtered, centered and their lag-0 sum taken once for all
    lags. A lag the walks do not reach, or a pool with no signal, gives nan.
    """
    walks = x[np.any(x != x[:, :1], axis=1)]
    c = walks - walks.mean(axis=1, keepdims=True)
    den = _lagged_sum(c, 0)
    return tuple(_lagged_sum(c, lag) / den if den > 0.0 and lag < x.shape[1] else math.nan
                 for lag in lags)


def correlation_length(rho1: float) -> float:
    """-1 / ln(rho(1)); defined only for rho(1) strictly between 0 and 1."""
    if not 0.0 < rho1 < 1.0:
        return math.nan
    return -1.0 / math.log(rho1)


def run_random_walk_campaign(landscape, campaign: RandomWalkCampaign, seed: int):
    """(WalkStats, raw) with rho for lags 0..s_max and tau from rho(1)."""
    cap = campaign.cap(landscape)
    series = np.empty((campaign.walks, campaign.length + 1))
    for block, t, _, _, fits in _lockstep_walks(landscape, campaign.walks, campaign.length, cap,
                                                seed, STREAM_RANDOM_WALK):
        series[block, t] = fits
    rho = _walk_rhos(series, range(campaign.s_max + 1))
    tau = correlation_length(rho[1]) if campaign.s_max >= 1 else math.nan
    return WalkStats(rho=rho, tau=tau), {"series": series}


def _lockstep_walks(landscape, walks: int, length: int, cap: int, seed: int, stream: int):
    """Yield ``(walk slice, t, rows, lams, fitness)`` of uniform walks, WALK_BLOCK at a time.

    Walk w reads row w of ``make_rng(seed, stream).random((walks, 1 + cap +
    length))``, drawn a block of rows at a time in walk order, so the rows do
    not depend on WALK_BLOCK. Its first ``1 + cap`` uniforms give its start
    (``genotype.decode_rows``), and at step t uniform ``u[cap + t]`` picks move
    ``int(u[cap + t] * F)`` of its F feasible moves (see ``_decode_moves``). A
    block's walks step in lockstep as the rows of one ``(block, cap + 2)``
    matrix padded with PAD; t runs over 0..length, and the next step changes
    ``rows`` and ``lams`` in place.
    """
    n = landscape.n_letters
    if cap == 0 and length > 0:
        raise ValueError(NO_MOVE)
    rng = make_rng(seed, stream)
    for lo in range(0, walks, WALK_BLOCK):
        block = slice(lo, min(lo + WALK_BLOCK, walks))
        u = rng.random((block.stop - lo, 1 + cap + length))
        rows, lams = decode_rows(u, n, cap)
        for t in range(length + 1):
            if t:
                _step_rows(rows, lams, u[:, cap + t], n, cap)
            yield block, t, rows, lams, landscape.evaluate_rows(rows)


def _step_rows(rows: np.ndarray, lams: np.ndarray, u: np.ndarray, n: int, cap: int) -> None:
    """Apply one feasible move to every row of a padded genotype matrix, in place.

    ``rows`` is ``(W, cap + 2)`` with each row's ``lams[w] <= cap`` letters
    followed by PAD, and ``lams`` is updated with it. The moves are
    ``_decode_moves(rows, lams, u, n, cap)``.
    """
    _apply_edits(rows, lams, *_decode_moves(rows, lams, u, n, cap))


def _decode_moves(rows: np.ndarray, lams: np.ndarray, u: np.ndarray, n: int, cap: int):
    """The ``(ins, dele, pos, letter)`` edits of ``_apply_edits`` that uniforms ``u`` pick.

    A row below the cap has F = (2 * lam + 1) * n feasible moves, one at the
    cap F = lam * n. Move ``m = int(u * F)`` is ``random_neighbor``'s
    operation m, counted past the (lam + 1) * n insertions at the cap. That
    order lists the insertions gap-major, letter-minor, then per position its
    n - 1 substitutions in letter order and its deletion.
    """
    ins_ops = (lams + 1) * n
    at_cap = lams >= cap
    op = (u * np.where(at_cap, lams * n, ins_ops + lams * n)).astype(np.int64)
    op += at_cap * ins_ops  # random_neighbor's operation index
    ins = op < ins_ops
    pos, r = np.divmod(np.where(ins, op, op - ins_ops), n)
    dele = ~ins & (r == n - 1)
    incumbent = rows[np.arange(len(lams)), pos]
    letter = np.where(ins | (r < incumbent), r, r + 1).astype(np.int16)
    return ins, dele, pos, letter


def _apply_edits(rows: np.ndarray, lams: np.ndarray, ins, dele, pos, letter) -> None:
    """Apply one edit per row of a ``(W, cap + 2)`` padded matrix, in place, with ``lams``.

    Row w inserts ``letter[w]`` before column ``pos[w]`` where ``ins``,
    deletes column ``pos[w]`` where ``dele``, and otherwise writes
    ``letter[w]`` over it.
    """
    # an insertion moves the columns right of its gap one right, a deletion
    # the columns from its position one left; the last column stays PAD
    cap = rows.shape[1] - 2
    old = rows.copy()
    cols = np.arange(cap + 1)
    np.copyto(rows[:, 1 : cap + 1], old[:, :cap], where=(cols[1:] > pos[:, None]) & ins[:, None])
    np.copyto(rows[:, : cap + 1], old[:, 1:], where=(cols >= pos[:, None]) & dele[:, None])
    keep = np.flatnonzero(~dele)
    rows[keep, pos[keep]] = letter[keep]
    lams += ins
    lams -= dele


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


def run_adaptive_walk_campaign(landscape, campaign: AdaptiveWalkCampaign, seed: int):
    """(WalkStats, raw) over greedy walks from random starts.

    Walk w decodes its start (``genotype.decode_rows``) from row w of
    ``make_rng(seed, STREAM_ADAPTIVE_START).random((walks, 1 + cap))``, drawn
    in walk order as walks join, and breaks ties with ``integers`` from
    ``make_rng(seed, STREAM_ADAPTIVE_WALK, w)``, opened on its first tie; it
    moves exactly as ``adaptive_walk`` would from that start on that stream.
    Up to ADAPTIVE_BLOCK walks step in lockstep as the rows of a padded
    ``(walks, cap + 2)`` matrix: each step scores every neighbor of every
    row in one pass (``_neighbor_fitness``), and a walk leaves the matrix
    when it stops, making room for the campaign's next walk.
    """
    cap = campaign.cap(landscape)
    n = landscape.n_letters
    finals = np.empty(campaign.walks)
    lengths = np.zeros(campaign.walks, dtype=np.int64)
    endpoints: list[Genotype] = [()] * campaign.walks
    start_rng = make_rng(seed, STREAM_ADAPTIVE_START)
    tie_rngs: dict[int, np.random.Generator] = {}
    joined = 0
    walk = np.empty(0, np.int64)
    rows = np.empty((0, cap + 2), np.int16)
    lams = np.empty(0, np.int64)
    fit = np.empty(0)
    while True:
        new = np.arange(joined, min(joined + ADAPTIVE_BLOCK - len(walk), campaign.walks))
        if len(new):  # the next walks take the places of those that stopped
            starts, start_lams = decode_rows(start_rng.random((len(new), 1 + cap)), n, cap)
            finals[new] = landscape.evaluate_rows(starts)
            joined += len(new)
            walk = np.concatenate([walk, new])
            rows = np.concatenate([rows, starts])
            lams = np.concatenate([lams, start_lams])
            fit = np.concatenate([fit, finals[new]])
        if not len(walk):
            break
        fits, counts = _neighbor_fitness(landscape, rows, lams, cap)
        first = np.cumsum(counts) - counts
        # a walk with no neighbor (cap 0) reads the -inf after the last one
        best = np.maximum.reduceat(np.append(fits, -np.inf), first)
        moves = best > fit
        for i in np.flatnonzero(~moves):
            endpoints[walk[i]] = tuple(rows[i, : lams[i]].tolist())
            tie_rngs.pop(int(walk[i]), None)
        # each moving walk picks among its maximal neighbors, drawing only on a tie
        cand = np.flatnonzero(np.repeat(moves, counts) & (fits == np.repeat(best, counts)))
        ties = np.bincount(np.searchsorted(first, cand, "right") - 1, minlength=len(walk))
        pick = np.cumsum(ties) - ties
        for i in np.flatnonzero(ties > 1):
            w = int(walk[i])
            if w not in tie_rngs:
                tie_rngs[w] = make_rng(seed, STREAM_ADAPTIVE_WALK, w)
            pick[i] += tie_rngs[w].integers(int(ties[i]))
        pick = cand[pick[moves]] - first[moves]  # its row in neighbor_matrix's order
        walk, rows, lams, fit = walk[moves], rows[moves], lams[moves], best[moves]
        finals[walk] = fit
        lengths[walk] += 1
        n_ins = np.where(lams < cap, (lams + 1) * n, 0)
        ins = pick < n_ins
        pos, letter = np.divmod(np.where(ins, pick, pick - n_ins), n)
        dele = ~ins & (letter == rows[np.arange(len(walk)), pos])
        _apply_edits(rows, lams, ins, dele, pos, letter)
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


def neighbor_class_counts(landscape, g: Genotype, f: float, lambda_max: int):
    """(lower, equal, higher) counts over all within-cap operation-neighbors."""
    row = np.array([(*g, PAD)], np.int16)
    return _class_totals(landscape, row, np.array([len(g)]), [f], lambda_max)


def _class_totals(landscape, rows: np.ndarray, lams: np.ndarray, fits, cap: int):
    """(lower, equal, higher) counts over the operation-neighbors of M genotypes together.

    Row i of ``rows`` starts with genotype i's ``lams[i]`` letters; the
    matrix is wider than every genotype. Per slot (``_slot_edits``) a kind's
    edits that gain no bit share one lookup of its base vector in the
    block-vector fitness table, and the deletion and each gaining letter take
    one each. With no insertion at the cap and only insertions at the end
    slot, the total is sum_i [(lam_i < cap)(lam_i + 1) n + lam_i n].
    """
    n = landscape.n_letters
    flat, gid, base, gains, dele = _slot_edits(rows, lams, n, landscape.b)
    size = len(flat)
    valid = np.concatenate([lams[gid] < cap, flat < n])
    at = np.flatnonzero(gains * valid)
    fp = np.asarray(fits, dtype=np.float64)[gid]
    fb = landscape.bv_fitness[base]
    gains, base, fa, fba = gains[at], base[at], fp[at % size], fb[at]
    fd, valid, fb = landscape.bv_fitness[dele], valid.reshape(2, size), fb.reshape(2, size)
    sides = (np.less, np.greater)
    counts = [n * np.count_nonzero(valid[0] & side(fb[0], fp))
              + (n - 1) * np.count_nonzero(valid[1] & side(fb[1], fp))
              + np.count_nonzero(valid[1] & side(fd, fp)) for side in sides]
    while len(gains):  # each pass moves one gaining letter per slot, its lowest bit, off the base
        low = gains & -gains
        fg = landscape.bv_fitness[base | low]
        counts = [c + np.count_nonzero(side(fg, fa)) - np.count_nonzero(side(fba, fa))
                  for c, side in zip(counts, sides)]
        gains ^= low
        more = gains != 0
        gains, base, fa, fba = gains[more], base[more], fa[more], fba[more]
    lower, higher = counts
    total = int((n * (np.where(lams < cap, lams + 1, 0) + lams)).sum())
    return lower, total - lower - higher, higher


def _slot_edits(rows: np.ndarray, lams: np.ndarray, n: int, b: int):
    """(letters, owner, base, gains, deletion): the block vector of every edit, per slot.

    An edit only changes the runs at its site: it splits or shortens the run
    of the letter it removes, and extends, bridges or opens a run of the
    letter it writes. A neighbor's block vector is therefore the current one
    with the removed letter's bit recounted and, when its new run reaches b,
    the written letter's bit set.

    Row i of ``rows`` starts with genotype i's ``lams[i]`` letters; the
    matrix is wider than every genotype. The genotypes are laid out in one
    flat array of ``size`` slots, each followed by the bit-less sentinel
    letter n, whose slot stands for the end gap; ``owner`` gives each slot's
    genotype. Each slot holds n insertions before it and n substitutions of
    it. Writing letter c gives the block vector ``base | (gains & bit[c])``,
    where ``base`` and ``gains`` hold the insertions' ``size`` values, then
    the substitutions'; the incumbent letter's substitution column holds the
    deletion instead, whose block vector is ``deletion``.
    """
    cols = np.arange(rows.shape[1])
    flat = rows[cols <= lams[:, None]].astype(np.intp)
    ends = np.cumsum(lams + 1) - 1
    flat[ends] = n
    size = len(flat)
    gid = np.repeat(np.arange(len(lams)), lams + 1)

    # runs from change points; a genotype's head always opens one
    new = np.ones(size, bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[ends - lams] = True
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    rlen = np.diff(starts, append=size)
    rlet = flat[starts]
    # left of a genotype's first run lies the end slot before it (the last
    # genotype's, for the first), whose letter n has no bit to join or bridge
    left, left_len = np.roll(rlet, 1), np.roll(rlen, 1)
    qualifying = np.bincount((gid[starts] * (n + 1) + rlet)[rlen >= b],
                             minlength=len(lams) * (n + 1)).reshape(-1, n + 1)
    bit = _letter_lut(n)  # bit[n] = 0
    every = (1 << n) - 1 if b == 1 else 0  # with b = 1 any written letter is a block

    ln, fl, fr = rlen[run], left[run], np.roll(rlet, -1)[run]
    nl, nr = left_len[run], np.roll(rlen, -1)[run]
    a = np.arange(size) - starts[run]  # offset in the run
    rest = ln - 1 - a
    kept = qualifying[gid, flat] > (ln >= b)  # the letter has a qualifying run besides this one
    cur = ((qualifying > 0) @ bit)[gid]
    own, left_bit = bit[flat], bit[fl]
    dropped = cur & ~own

    def recount(keeps):
        return np.where(keeps, cur, dropped)

    # kinds laid end to end: insertions before each slot, then substitutions of it
    bridge = (ln == 1) & (fl == fr)
    head = kept | (a >= b)
    base = np.concatenate([recount(head | (ln - a >= b)), recount(head | (rest >= b))])
    # written at a run's head, the left flank's letter extends that flank; at
    # its end the right flank's, which for a bridged singleton is the same
    joins_left = np.where((a == 0) & (nl + 1 >= b), left_bit, 0)
    joins_either = joins_left | np.where((rest == 0) & (nr + 1 + bridge * nl >= b), bit[fr], 0)
    written = np.concatenate([np.where(ln + 1 >= b, own, 0) | joins_left, joins_either])
    gains = (written | every) & ~base
    gains[size:] &= ~own  # the incumbent letter's column holds the deletion
    dele = recount(kept | (ln > b)) | np.where(bridge & (nl + nr >= b), left_bit, 0)
    return flat, gid, base, gains, dele


def _neighbor_fitness(landscape, rows: np.ndarray, lams: np.ndarray, cap: int):
    """(fitness, counts): every within-cap operation-neighbor's fitness, genotype by genotype.

    Genotype i's ``counts[i]`` neighbors follow those of genotypes 0..i-1, in
    ``neighbor_matrix``'s row order: insertions gap-major and letter-minor
    (none at the cap), then per position one column per letter, the
    incumbent letter's holding the deletion. Their block vectors come from
    the run structure (``_slot_edits``); no neighbor is built.
    """
    n = landscape.n_letters
    flat, owner, base, gains, dele = _slot_edits(rows, lams, n, landscape.b)
    size = len(flat)
    bv = base[:, None] | (gains[:, None] & _letter_lut(n)[:n])
    np.copyto(bv[size:], dele[:, None], where=flat[:, None] == np.arange(n))
    keep = np.concatenate([lams[owner] < cap, flat < n])  # no capped insertions or end-slot edits
    order = np.argsort(np.concatenate([2 * owner, 2 * owner + 1]), kind="stable")
    counts = n * (np.where(lams < cap, lams + 1, 0) + lams)
    return landscape.bv_fitness[bv[order[keep[order]]]].ravel(), counts


def neutrality_scan(landscape, campaign: NeutralityCampaign,
                    seed: int) -> tuple[float, float, float]:
    """Proportions of lower / equal / higher neighbors along random walks.

    Every genotype visited by every walk contributes all its within-cap
    operation-neighbors, compared against the current fitness with exact
    floating equality (safe because fitness factors through block vectors).
    The walks step as in the correlation campaign (``_lockstep_walks``), on the
    stream (seed, STREAM_NEUTRALITY), but roam the full search space: the cap
    defaults to the landscape's own lambda_max.
    """
    cap = campaign.cap(landscape)
    counts = np.zeros(3, np.int64)
    for _, _, rows, lams, fits in _lockstep_walks(landscape, campaign.walks, campaign.length,
                                                  cap, seed, STREAM_NEUTRALITY):
        counts += _class_totals(landscape, rows, lams, fits, cap)
    total = int(counts.sum())
    return tuple(int(c) / total for c in counts)
