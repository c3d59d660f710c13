from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiroad.ea import (
    EaConfig,
    RunResult,
    elitist_victim,
    init_population,
    mutate,
    one_point_crossover,
    run,
    run_instance,
    tournament_select,
)
from epiroad.genotype import PAD, BlockParams, block_count, block_ends, decode_rows
from epiroad.landscapes import er_build, is_success, royal_road
from epiroad.seeds import STREAM_EA_RUN, STREAM_FORMAT, UniformPool, make_rng


class ScriptedRng:
    """Replays scripted draws through the Generator interface used by the EA."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, *args, **kwargs):
        return self._integers.pop(0)


def small_cfg(**kw):
    defaults = dict(population=30, generations=10, runs=2,
                    max_creation_size=10, max_program_size=20)
    defaults.update(kw)
    return EaConfig(**defaults)


def test_config_defaults_and_validation():
    cfg = EaConfig()
    assert (cfg.population, cfg.generations) == (1000, 400)
    assert (cfg.mutation_rate, cfg.crossover_rate) == (0.9, 0.3)
    assert cfg.tournament_size == 4
    assert (cfg.max_creation_size, cfg.max_program_size) == (50, 100)
    assert cfg.elitism and cfg.runs == 35
    with pytest.raises(ValueError):
        EaConfig(mutation_rate=1.5)
    with pytest.raises(ValueError):
        EaConfig(max_creation_size=60, max_program_size=50)


def test_init_population_sizes_and_determinism():
    cfg = EaConfig(population=200)
    L = er_build(8, 2, 2, 100, seed=29)
    pop1, fits1 = init_population(cfg, L, make_rng(5, 0))
    pop2, fits2 = init_population(cfg, L, make_rng(5, 0))
    assert len(pop1) == len(fits1) == 200
    assert all(type(g) is bytes for g in pop1)
    assert all(len(g) <= 50 for g in pop1)
    assert pop1 == pop2 and fits1.tolist() == fits2.tolist()


@given(st.lists(st.integers(0, 7), max_size=20).map(tuple), st.integers(0, 10_000))
@settings(max_examples=80)
def test_mutate_changes_length_by_at_most_one(g, seed):
    cfg = EaConfig()
    out = mutate(g, cfg, 8, make_rng(seed, 0))
    assert abs(len(out) - len(g)) <= 1
    assert all(0 <= s < 8 for s in out)


def test_mutate_empty_genotype_lengths():
    cfg = EaConfig()
    lengths = {len(mutate((), cfg, 8, make_rng(7, i))) for i in range(500)}
    assert lengths == {0, 1}


def test_mutate_gate_rate():
    # on the empty genotype only the insertion applies, so a gated-in draw
    # always yields length 1: the empty-output fraction estimates 1 - rate
    cfg = EaConfig()
    rng = make_rng(8, 0)
    draws = 100_000
    unchanged = sum(1 for _ in range(draws) if len(mutate((), cfg, 8, rng)) == 0)
    p = 1 - cfg.mutation_rate
    se = (p * (1 - p) / draws) ** 0.5
    assert abs(unchanged / draws - p) < 3 * se


def test_mutate_draws_the_substituted_letter_before_its_position():
    # insertion (gap, letter), deletion (position), then substitution: the
    # assignment's right side, the letter, is drawn before the position
    cfg = EaConfig(mutation_rate=1.0)
    rng = ScriptedRng(randoms=[0.0], integers=[0, 3, 0, 2, 1])
    assert mutate((0, 1, 2), cfg, 4, rng) == (0, 2, 2)  # not (0, 1, 1)
    assert rng._integers == []


def test_mutate_respects_cap():
    cfg = EaConfig(max_creation_size=5, max_program_size=5)
    g = (0, 1, 2, 3, 0)
    for i in range(300):
        assert len(mutate(g, cfg, 4, make_rng(9, i))) <= 5


@given(
    st.lists(st.integers(0, 7), max_size=30).map(tuple),
    st.lists(st.integers(0, 7), max_size=30).map(tuple),
    st.integers(0, 10_000),
)
@settings(max_examples=80)
def test_crossover_conserves_symbol_multiset(a, b, seed):
    cfg = EaConfig(crossover_rate=1.0)
    c1, c2 = one_point_crossover(a, b, cfg, make_rng(seed, 1))
    assert Counter(c1) + Counter(c2) == Counter(a) + Counter(b)


def test_crossover_cut_zero_zero_swaps_parents():
    cfg = EaConfig(crossover_rate=1.0)
    a, b = (0, 1, 2), (3, 3)
    rng = ScriptedRng(randoms=[0.0], integers=[0, 0])
    assert one_point_crossover(a, b, cfg, rng) == (b, a)


def test_crossover_rate_zero_returns_parents():
    cfg = EaConfig(crossover_rate=0.0)
    a, b = (0, 1), (2,)
    assert one_point_crossover(a, b, cfg, make_rng(11, 0)) == (a, b)


def test_crossover_half_cap_parents_never_overflow():
    cfg = EaConfig(crossover_rate=1.0)
    rng = make_rng(12, 0)
    a = tuple(int(v) for v in rng.integers(0, 8, size=50))
    b = tuple(int(v) for v in rng.integers(0, 8, size=50))
    for i in range(300):
        c1, c2 = one_point_crossover(a, b, cfg, make_rng(12, i))
        assert len(c1) <= 100 and len(c2) <= 100
        assert len(c1) + len(c2) == 100


def test_crossover_falls_back_to_parents_after_redraws():
    cfg = EaConfig(crossover_rate=1.0)
    a = (0,) * 80
    b = (1,) * 80
    # every scripted cut pair makes an oversize child; after 20 attempts the
    # parents come back unchanged
    rng = ScriptedRng(randoms=[0.0], integers=[80, 10] * 20)
    assert one_point_crossover(a, b, cfg, rng) == (a, b)


def test_tournament_k1_is_uniform():
    fits = np.array([0.1, 0.9, 0.5, 0.3])
    rng = make_rng(13, 0)
    counts = Counter(tournament_select(fits, 1, rng) for _ in range(8000))
    for idx in range(4):
        p = 1 / 4
        se = (p * (1 - p) / 8000) ** 0.5
        assert abs(counts[idx] / 8000 - p) < 4 * se


def test_tournament_unique_max_probability():
    m = 10
    fits = np.zeros(m)
    fits[3] = 1.0
    rng = make_rng(14, 0)
    trials = 20_000
    hits = sum(1 for _ in range(trials) if tournament_select(fits, 4, rng) == 3)
    p = 1 - (1 - 1 / m) ** 4
    se = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) < 3 * se


def test_tournament_deterministic():
    fits = np.array([0.2, 0.8, 0.8, 0.1])
    assert [tournament_select(fits, 4, make_rng(15, i)) for i in range(20)] == [
        tournament_select(fits, 4, make_rng(15, i)) for i in range(20)
    ]


def test_run_traces_shape_and_monotone_best():
    L = er_build(8, 2, 2, 100, seed=30)
    cfg = small_cfg(max_program_size=100, max_creation_size=50)
    res = run(cfg, L, 1)
    assert len(res.best_fitness_trace) == cfg.generations + 1
    assert len(res.best_blocks_trace) == cfg.generations + 1
    assert all(a <= b for a, b in zip(res.best_fitness_trace, res.best_fitness_trace[1:]))


def test_run_deterministic():
    L = er_build(8, 2, 2, 100, seed=31)
    cfg = small_cfg(max_program_size=100, max_creation_size=50)
    r1 = run(cfg, L, 77)
    r2 = run(cfg, L, 77)
    assert r1 == r2


def test_run_k0_easy_success():
    L = er_build(6, 0, 1, 100, seed=32)
    cfg = EaConfig(population=100, generations=30, max_creation_size=30,
                   max_program_size=100, runs=1)
    res = run(cfg, L, 5)
    assert res.success
    assert res.generations_to_success is not None
    assert res.best_blocks_trace[-1] == 6


def test_run_success_implies_all_blocks():
    L = er_build(8, 1, 2, 100, seed=33)
    cfg = EaConfig(population=150, generations=60, runs=1)
    res = run(cfg, L, 6)
    if res.success:
        assert res.best_blocks_trace[-1] == 8
        g = res.generations_to_success
        assert res.best_fitness_trace[g] >= L.optimum_value - 1e-12


def spy_block_ends(monkeypatch, check=lambda g: None):
    """Count the children ``run`` scores, through its ``block_ends`` binding."""
    from epiroad import ea as ea_mod

    calls = Counter()

    def counted(g, b):
        calls["children"] += 1
        check(g)
        return block_ends(g, b)

    monkeypatch.setattr(ea_mod, "block_ends", counted)
    return calls


def test_run_without_variation_only_duplicates(monkeypatch):
    # rates at zero: children are parent copies, so every evaluated genotype
    # must already exist in the initial population
    from epiroad import ea as ea_mod

    L = er_build(6, 2, 2, 100, seed=34)
    cfg = small_cfg(mutation_rate=0.0, crossover_rate=0.0, generations=5,
                    max_program_size=100, max_creation_size=20, stop_on_success=False)
    initial = {tuple(g) for g in
               init_population(cfg, L, make_rng(1, ea_mod.STREAM_EA_RUN))[0]}

    def in_initial(g):
        assert tuple(g) in initial

    scored = spy_block_ends(monkeypatch, in_initial)

    class Spy:
        n_letters = L.n_letters
        b = L.b
        lambda_max = L.lambda_max
        optimum_value = L.optimum_value
        bv_fitness = L.bv_fitness
        rows = 0

        def evaluate_rows(self, rows):
            Spy.rows += len(rows)
            return L.evaluate_rows(rows)

    res = run(cfg, Spy(), 1)
    assert res.best_fitness_trace[-1] >= res.best_fitness_trace[0]
    # the population is scored as rows; every child is its parent, whose
    # fitness it keeps: none is evaluated
    assert (Spy.rows, scored["children"]) == (cfg.population, 0)


def test_population_size_constant_and_within_cap(monkeypatch):
    L = er_build(6, 1, 2, 100, seed=35)

    def within_cap(g):
        assert len(g) <= 20

    spy_block_ends(monkeypatch, within_cap)

    class Spy:
        n_letters = L.n_letters
        b = L.b
        lambda_max = L.lambda_max
        optimum_value = L.optimum_value
        bv_fitness = L.bv_fitness

        def evaluate_rows(self, rows):
            assert ((rows != PAD).sum(axis=1) <= 10).all()  # max_creation_size
            return L.evaluate_rows(rows)

    cfg = small_cfg(max_program_size=20, max_creation_size=10, stop_on_success=False)
    run(cfg, Spy(), 1)


def test_run_instance_is_reproducible():
    L = er_build(8, 0, 2, 100, seed=36)
    cfg = small_cfg(population=80, generations=25, runs=3,
                    max_program_size=100, max_creation_size=50)
    runs = run_instance(cfg, L, 8, 0, 2, 0, master_seed=99)
    assert len(runs) == 3
    assert all(len(r.best_blocks_trace) == cfg.generations + 1 for r in runs)
    # derived child seeds make instances reproducible
    runs2 = run_instance(cfg, L, 8, 0, 2, 0, master_seed=99)
    assert [r.best_fitness_trace for r in runs] == [r.best_fitness_trace for r in runs2]


def test_run_rejects_program_size_beyond_landscape():
    L = er_build(4, 1, 2, 8, seed=37)
    with pytest.raises(ValueError):
        run(small_cfg(max_program_size=10, max_creation_size=5), L, 1)


def test_config_rejects_wrong_types_and_ranges():
    for kw in [dict(population="10"), dict(population=2.5), dict(population=True),
               dict(elitism=1), dict(mutation_rate="0.5"), dict(runs=0),
               dict(max_creation_size=-1, max_program_size=10), dict(seed=-1)]:
        with pytest.raises((TypeError, ValueError)):
            EaConfig(**kw)
    assert EaConfig(population=np.int64(5), mutation_rate=1).population == 5
    # the seed is run's argument, checked where its stream opens
    L = er_build(6, 2, 2, 100, seed=30)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match="seed path entries must be non-negative integers"):
            run(small_cfg(), L, seed)
    assert run(small_cfg(), L, np.int64(1)) == run(small_cfg(), L, 1)


# ---------------------------------------------------------------------------
# stream format 2: block draws


class ConstantUniforms:
    """A generator stub whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_pool_integers_stay_below_high_at_largest_uniform():
    u = np.nextafter(1.0, 0.0)
    highs = list(range(1, 5000)) + [2**31 - 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1]
    pool = UniformPool(ConstantUniforms(u))
    for high in highs:
        assert pool.integers(high) == high - 1
    assert UniformPool(ConstantUniforms(0.0)).integers(7) == 0


def test_pool_draws_match_one_long_generator_call():
    pool = UniformPool(make_rng(21, 5))
    draws = [pool.random() for _ in range(2 * UniformPool.BLOCK + 3)]
    assert draws == make_rng(21, 5).random(2 * UniformPool.BLOCK + 3).tolist()
    pool = UniformPool(make_rng(22, 5))
    ints = [pool.integers(10) for _ in range(UniformPool.BLOCK + 10)]
    assert ints == [int(u * 10) for u in make_rng(22, 5).random(UniformPool.BLOCK + 10)]


def test_pool_reserve_keeps_the_order_of_one_long_generator_call():
    # refills put a fresh block in front of the uniforms still held, also
    # while the stack is not empty and for reservations beyond one block
    pool = UniformPool(make_rng(25, 5))
    stack = pool.reserve(0)
    served = []
    for k in [1, 63, 4000, 100, UniformPool.BLOCK + 7, 5, 2 * UniformPool.BLOCK, 63] * 2:
        assert pool.reserve(k) is stack and len(stack) >= k
        served += [stack.pop() for _ in range(k // 2 + 1)]
        served.append(pool.random())
    assert len(served) > 4 * UniformPool.BLOCK
    assert served == make_rng(25, 5).random(len(served)).tolist()


# chi-square critical value, 6 degrees of freedom, p = 0.001
CHI2_CRIT_DF6 = 22.458


def chi_square(counts, expected):
    return sum((counts[i] - e) ** 2 / e for i, e in enumerate(expected))


def test_pool_integers_chi_square():
    pool = UniformPool(make_rng(23, 0))
    draws = 70_000
    counts = Counter(pool.integers(7) for _ in range(draws))
    assert set(counts) == set(range(7))
    assert chi_square(counts, [draws / 7] * 7) < CHI2_CRIT_DF6


def test_tournament_winners_chi_square():
    # k = 3 draws with replacement: P(winner has value v) = F(v)^3 - F(v-)^3,
    # where F counts the values <= v; tied indices share it equally
    fits = [0.1, 0.5, 0.5, 0.9, 0.3, 0.9, 0.2]
    n, k = len(fits), 3
    expected_p = []
    for v in fits:
        le = sum(f <= v for f in fits)
        lt = sum(f < v for f in fits)
        tied = le - lt
        expected_p.append(((le / n) ** k - (lt / n) ** k) / tied)
    assert abs(sum(expected_p) - 1) < 1e-12
    pool = UniformPool(make_rng(24, 0))
    trials = 60_000
    counts = Counter(tournament_select(fits, k, pool) for _ in range(trials))
    assert chi_square(counts, [trials * p for p in expected_p]) < CHI2_CRIT_DF6


def masked_copy_victim(fits, best_idx):
    masked = fits.copy()
    masked[best_idx] = np.inf
    return int(np.argmin(masked))


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=2, max_size=12),
       st.integers(0, 11))
@example([0.5] * 4, 0)
@example([0.5] * 4, 1)
@example([0.5] * 4, 3)
@example([0.9, 0.1, 0.1, 0.9], 0)
@example([0.9, 0.9], 0)
@settings(max_examples=300)
def test_elitist_victim_matches_masked_copy(values, pick):
    fits = np.array(values)
    # elitism keeps fits[best_idx] at a maximum, not necessarily the first
    maxima = np.flatnonzero(fits == fits.max())
    best_idx = int(maxima[pick % len(maxima)])
    assert elitist_victim(fits, best_idx) == masked_copy_victim(fits, best_idx)


def test_run_golden_stream_format_6():
    # pinned output of one run; a change to the EA's draws or their order
    # must bump STREAM_FORMAT and re-pin. Formats 3 to 5 changed only the
    # walk campaigns and the neutrality scans; format 6 changed the initial
    # population. Under format 5 this run reached the optimum at generation
    # 8; from its format-6 population it stays at 3 blocks for 12 generations.
    assert STREAM_FORMAT == 6
    L = er_build(6, 2, 2, 100, seed=38)
    cfg = EaConfig(population=40, generations=12, max_creation_size=20,
                   max_program_size=100, runs=1)
    res = run(cfg, L, 3)
    assert not res.success and res.generations_to_success is None
    assert res.best_blocks_trace == [3] * 13
    assert res.best_fitness_trace == [0.8357267885778169] * 13


# ---------------------------------------------------------------------------
# oracle: the generation loop as one operator call per draw site


class CountedDraws:
    """A UniformPool that counts its draws and keeps the integers drawn."""

    def __init__(self, pool):
        self.pool = pool
        self.n = 0
        self.ints = []

    def random(self):
        self.n += 1
        return self.pool.random()

    def integers(self, high):
        self.n += 1
        self.ints.append(self.pool.integers(high))
        return self.ints[-1]


def scalar_population(cfg, landscape, rng):
    """(genotypes, fitness) of stream format 6's initial population, one genotype at a time.

    Genotype i decodes row i of one ``random((population, 1 + max_creation_size))``
    call in Python floats and is scored with the scalar ``evaluate``.
    """
    cap, n = cfg.max_creation_size, landscape.n_letters
    genotypes = [tuple(int(x * n) for x in u[1 : 1 + int(u[0] * (cap + 1))])
                 for u in rng.random((cfg.population, 1 + cap)).tolist()]
    return genotypes, [landscape.evaluate(g) for g in genotypes]


def reference_run(cfg, landscape, seed, events=None):
    """ea.run as one call per operator and an argmin per child (stream format 6).

    The initial population is ``scalar_population``'s; later draws are as in
    stream format 2.

    ``events`` counts the rare branches the run took: crossover's fallback to
    the parents after 20 oversize cut pairs, a mutation whose insertion was
    skipped at ``max_program_size``, and elitist_victim's fallback when every
    fitness is equal.
    """
    if cfg.max_program_size > landscape.lambda_max:
        raise ValueError("max_program_size exceeds the landscape's lambda_max")
    events = Counter() if events is None else events
    rng = make_rng(seed, STREAM_EA_RUN)
    n_letters = landscape.n_letters
    pop, fit_list = scalar_population(cfg, landscape, rng)
    draws = CountedDraws(UniformPool(rng))
    fits = np.array(fit_list)
    best_idx = int(np.argmax(fits))
    elitist = cfg.elitism and cfg.population > 1

    fitness_trace, blocks_trace = [], []

    def record():
        fitness_trace.append(fit_list[best_idx])
        blocks_trace.append(block_count(pop[best_idx], n_letters, landscape.b))

    record()
    success_gen = 0 if is_success(landscape, fit_list[best_idx]) else None

    for gen in range(1, cfg.generations + 1):
        if success_gen is not None and cfg.stop_on_success:
            break
        for _ in range(cfg.population):
            i1 = tournament_select(fit_list, cfg.tournament_size, draws)
            i2 = tournament_select(fit_list, cfg.tournament_size, draws)
            before = draws.n
            c1, c2 = one_point_crossover(pop[i1], pop[i2], cfg, draws)
            if draws.n - before == 41:  # 20 cut pairs: the last one fits, or none did
                ca, cb = draws.ints[-2:]
                events["crossover_fallback"] += \
                    max(ca + len(pop[i2]) - cb, cb + len(pop[i1]) - ca) > cfg.max_program_size
            children = []
            for c in (c1, c2):
                before = draws.n
                children.append(mutate(c, cfg, n_letters, draws))
                events["insertion_skipped"] += \
                    draws.n > before + 1 and len(c) == cfg.max_program_size
            for child in children:
                f = landscape.evaluate(child)
                events["elitist_fallback"] += elitist and int(fits.argmin()) == best_idx
                victim = elitist_victim(fits, best_idx) if elitist else int(fits.argmin())
                if f >= fit_list[victim]:
                    pop[victim] = child
                    fits[victim] = f
                    fit_list[victim] = f
                    if f > fit_list[best_idx]:
                        best_idx = victim
        record()
        if success_gen is None and is_success(landscape, fit_list[best_idx]):
            success_gen = gen

    while len(fitness_trace) < cfg.generations + 1:
        fitness_trace.append(fitness_trace[-1])
        blocks_trace.append(blocks_trace[-1])
    return RunResult(best_fitness_trace=fitness_trace, best_blocks_trace=blocks_trace,
                     success=success_gen is not None, generations_to_success=success_gen)


def oracle_grid():
    """(cfg, landscape, seed) triples: the edge cases by name, then seeded random configs."""
    er = er_build(6, 2, 2, 30, seed=40)
    flat = royal_road(BlockParams(4, 7, 30))  # b above every program size: all fitness 0
    late = royal_road(BlockParams(4, 4, 30))  # no block at creation, blocks after growth
    base = dict(population=12, generations=5, max_creation_size=10, max_program_size=20,
                stop_on_success=False, runs=1)
    named = [
        (dict(elitism=False), er),
        (dict(population=1), er),
        (dict(population=2), er),
        (dict(population=2, elitism=False), er),
        (dict(tournament_size=1), er),
        (dict(crossover_rate=0.0), er),
        (dict(crossover_rate=1.0, mutation_rate=0.0, max_creation_size=6, max_program_size=6,
              generations=10), er),  # 20-try fallback
        (dict(mutation_rate=0.0), er),
        (dict(mutation_rate=1.0), er),
        (dict(mutation_rate=0.0, crossover_rate=0.0), er),
        (dict(max_program_size=10), er),  # insertion skipped at the cap
        (dict(max_creation_size=0, max_program_size=0), er),
        (dict(generations=0), er),
        (dict(stop_on_success=True, generations=30, population=40), er),
        (dict(max_creation_size=5, max_program_size=6), flat),  # elitist fallback
        (dict(max_creation_size=3, max_program_size=30, generations=8), late),
        (dict(max_creation_size=5, max_program_size=6, elitism=False), flat),
    ]
    cases = [(EaConfig(**{**base, **kw}), L, 3) for kw, L in named]
    rng = np.random.default_rng(2024)
    landscapes = [er, flat, late, er_build(4, 0, 1, 30, seed=41), er_build(8, 5, 3, 30, seed=42)]
    for _ in range(300):
        creation = int(rng.integers(0, 13))
        cfg = EaConfig(
            population=int(rng.choice([1, 2, 3, 5, 8, 20])),
            generations=int(rng.integers(0, 7)),
            mutation_rate=float(rng.choice([0.0, 0.3, 0.9, 1.0])),
            crossover_rate=float(rng.choice([0.0, 0.3, 1.0])),
            tournament_size=int(rng.integers(1, 6)),
            max_creation_size=creation,
            max_program_size=creation + int(rng.choice([0, 1, 5, 17])),
            elitism=bool(rng.integers(2)),
            stop_on_success=bool(rng.integers(2)),
            runs=1,
        )
        seed = int(rng.integers(2**40))  # drawn after the config's fields, before the landscape
        cases.append((cfg, landscapes[int(rng.integers(len(landscapes)))], seed))
    return cases


def test_run_equals_reference_run_over_config_grid():
    events = Counter()
    for cfg, L, seed in oracle_grid():
        assert run(cfg, L, seed) == reference_run(cfg, L, seed, events), cfg
    # the grid reaches every rare branch of the loop
    assert min(events["crossover_fallback"], events["insertion_skipped"],
               events["elitist_fallback"]) > 0, events


def test_run_does_not_depend_on_the_memo_size(monkeypatch):
    # a memo of one entry is cleared at almost every miss; b = 1 keys it by
    # the whole child, which rarely repeats
    from epiroad import ea as ea_mod

    cases = oracle_grid() + [
        (small_cfg(population=60, generations=8, max_program_size=30, stop_on_success=False),
         er_build(6, 2, 1, 30, seed=44), 1),
    ]
    results = [run(cfg, L, seed) for cfg, L, seed in cases]
    monkeypatch.setattr(ea_mod, "MEMO_SIZE", 1)
    for (cfg, L, seed), want in zip(cases, results):
        assert run(cfg, L, seed) == want, cfg


def test_run_reuses_the_fitness_of_unchanged_children(monkeypatch):
    # a child that neither crossover nor mutation changed is its parent: it is
    # not evaluated again, and every other child is evaluated once
    L = er_build(6, 2, 2, 30, seed=43)
    cfg = small_cfg(population=20, generations=6, max_program_size=30, stop_on_success=False)
    scored = spy_block_ends(monkeypatch)
    assert run(cfg, L, 1) == reference_run(cfg, L, 1)
    children = 2 * cfg.population * cfg.generations
    assert 0.6 * children < scored["children"] < children


# ---------------------------------------------------------------------------
# stream format 6: the initial population as decoded rows


def one_call_population(cfg, landscape, seed):
    """The population one ``random((population, 1 + max_creation_size))`` call decodes to."""
    cap = cfg.max_creation_size
    rng = make_rng(seed, STREAM_EA_RUN)
    rows, lams = decode_rows(rng.random((cfg.population, 1 + cap)), landscape.n_letters, cap)
    genotypes = [tuple(row[:lam]) for row, lam in zip(rows.tolist(), lams.tolist())]
    return genotypes, landscape.evaluate_rows(rows).tolist(), rng.random()


@pytest.mark.parametrize("creation, program", [(0, 0), (0, 5), (7, 20), (12, 12), (30, 30)])
def test_init_population_equals_scalar_decode_and_evaluate(creation, program):
    landscapes = [er_build(6, 2, 2, 30, seed=44), royal_road(BlockParams(4, 3, 30)),
                  er_build(8, 5, 1, 30, seed=45)]
    for L in landscapes:
        cfg = EaConfig(population=150, max_creation_size=creation, max_program_size=program,
                       generations=4, stop_on_success=False)
        pop, fits = init_population(cfg, L, make_rng(46, creation))
        want, want_fits = scalar_population(cfg, L, make_rng(46, creation))
        assert [tuple(g) for g in pop] == want
        assert all(type(g) is bytes for g in pop)
        assert all(type(s) is int for g in pop for s in g)
        assert fits.tolist() == want_fits  # bit-equal: both read the same table entry
        if creation == 0:
            assert set(pop) == {b""}
        assert run(cfg, L, 0) == reference_run(cfg, L, 0)


@pytest.mark.parametrize("population, block", [(1, 64), (63, 64), (64, 64), (65, 64), (1000, 64),
                                               (1000, 1), (1000, 7), (1000, 65), (1000, 5000)])
def test_init_population_is_one_call_decode_at_any_block_size(monkeypatch, population, block):
    from epiroad import ea as ea_mod

    L = er_build(8, 3, 2, 40, seed=48)
    cfg = EaConfig(population=population, max_creation_size=20, max_program_size=40)
    monkeypatch.setattr(ea_mod, "INIT_BLOCK", block)
    rng = make_rng(49, STREAM_EA_RUN)
    pop, fits = init_population(cfg, L, rng)
    # the run's UniformPool continues where one call would have left the generator
    assert all(type(g) is bytes for g in pop)
    pop = [tuple(g) for g in pop]
    assert (pop, fits.tolist(), rng.random()) == one_call_population(cfg, L, 49)


def test_init_population_lengths_and_letters_chi_square():
    # lengths uniform on 0..6 and letters uniform on 0..6: 7 classes each
    L = royal_road(BlockParams(7, 2, 30))
    cfg = EaConfig(population=35_000, max_creation_size=6, max_program_size=30)
    pop, _ = init_population(cfg, L, make_rng(50, STREAM_EA_RUN))
    lengths = Counter(len(g) for g in pop)
    assert set(lengths) == set(range(7))
    assert chi_square(lengths, [len(pop) / 7] * 7) < CHI2_CRIT_DF6
    letters = Counter(s for g in pop for s in g)
    assert set(letters) == set(range(7))
    total = sum(letters.values())
    assert chi_square(letters, [total / 7] * 7) < CHI2_CRIT_DF6
