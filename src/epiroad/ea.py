"""Steady-state evolutionary algorithm on variable-length genotypes.

One generation is ``population`` offspring events. Each event tournament
selects two parents, applies one-point crossover with probability
``crossover_rate``, then mutates both children; each child replaces the
current worst individual when at least as fit. With elitism the incumbent
best is never the replacement victim, so the best fitness in the population
never decreases.

Mutation is gated by a single Bernoulli(mutation_rate) draw that enables one
insertion, one deletion and one substitution together, in that order. Whether
an operation applies is decided against the incoming genotype: deletion and
substitution are skipped when it is empty, insertion when it already sits at
``max_program_size``.

Genotypes are ``bytes``, one letter per byte (alphabets stop at 24 letters,
``nk.EXHAUSTIVE_BOUND``): crossover slices and joins them, and mutation edits
a ``bytearray``. The reference operators below also take tuples.

A child is scored without ``landscape.evaluate``, to the same float. After
the alphabet check, ``genotype.block_ends`` finds the letters that end its
blocks, in byte lanes of one int. Those few bytes key a per-run memo of
fitness, since children far more often repeat their block ends than their
letters. On a miss the letters' bits are summed over the set of ends and the
sum is looked up in ``landscape.bv_fitness``. The memo is cleared when it
holds MEMO_SIZE entries, which bounds it at b = 1, where the ends are the
child itself.

A run's randomness comes from its own stream. The initial population is
decoded from one row of uniforms per genotype, as walk starts are
(``genotype.decode_rows``), and scored a block of rows at a time with one
table lookup (stream format 6); every later draw comes from a
``UniformPool`` over the same generator. The operators only call
``random()`` and ``integers(high)``, so they take either a pool or a
``Generator``.

``run`` is one event loop. Each event reserves its worst-case number of
uniforms from the pool and reads them through the stack's ``pop``, with the
draws of ``tournament_select``, ``one_point_crossover`` and ``mutate`` inlined
in the operators' order; those functions are the reference the loop is tested
against. The victim comes from the minimum level: the indices that hold the
population's minimum fitness. A child replaces only when at least that
minimum, so the minimum never falls; the level loses an index when a fitter
child replaces it and is recomputed with one numpy pass when it empties. Its
lowest index is the first minimum, as ``elitist_victim`` picks, and its next
one the elitist fallback when every value is equal. A child that
neither crossover nor mutation changed is its parent and keeps the parent's
fitness instead of being evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .genotype import (
    Genotype,
    _letter_lut,
    block_count,
    block_ends,
    check_field_types,
    decode_rows,
    random_genotype,  # noqa: F401  (no caller here; benchmarks/recorder.py wraps this binding)
    validate_genotype,
)
from .landscapes import is_success
from .seeds import STREAM_EA_RUN, STREAM_LANDSCAPE_SEED, UniformPool, derive_seed, make_rng

# Rows of the initial population drawn and scored together; the population
# does not depend on it, only the size of its temporaries does.
INIT_BLOCK = 64

# Entries of a run's fitness memo, keyed by a child's block-end letters; the
# memo is cleared when full. Outputs do not depend on it, only memory does.
MEMO_SIZE = 1 << 14


@dataclass
class EaConfig:
    population: int = 1000
    generations: int = 400
    mutation_rate: float = 0.9
    crossover_rate: float = 0.3
    tournament_size: int = 4
    max_creation_size: int = 50
    max_program_size: int = 100
    elitism: bool = True
    runs: int = 35
    seed: int = 0
    stop_on_success: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must lie in [0, 1], got {self.crossover_rate}")
        if self.max_program_size < self.max_creation_size:
            raise ValueError(
                f"max_program_size={self.max_program_size} below "
                f"max_creation_size={self.max_creation_size}"
            )
        if self.population < 1 or self.generations < 0 or self.tournament_size < 1:
            raise ValueError("population, generations and tournament_size must be positive")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.max_creation_size < 0 or self.seed < 0:
            raise ValueError("max_creation_size and seed must be >= 0")

    def check_fits(self, params) -> None:
        """Programs fit the landscape: ``params`` is its ``BlockParams``, or the landscape."""
        if self.max_program_size > params.lambda_max:
            raise ValueError(f"max_program_size {self.max_program_size} exceeds the landscape "
                             f"lambda_max={params.lambda_max}")


@dataclass
class RunResult:
    best_fitness_trace: list[float]
    best_blocks_trace: list[int]
    success: bool
    generations_to_success: int | None = None


def init_population(cfg: EaConfig, landscape,
                    rng: np.random.Generator) -> tuple[list[bytes], np.ndarray]:
    """(genotypes, fitness) of the initial population, each genotype ``bytes``.

    Genotype i is decoded (``decode_rows``) from row i of
    ``rng.random((population, 1 + max_creation_size))``: its length is
    ``int(u[0] * (max_creation_size + 1))`` and its letters
    ``int(u[j] * n_letters)``. The rows are drawn INIT_BLOCK at a time in row
    order, which gives the rows of one call, and each block is scored with one
    ``evaluate_rows`` table lookup.
    """
    cap, size = cfg.max_creation_size, cfg.population
    genotypes: list[bytes] = []
    fits = np.empty(size)
    for lo in range(0, size, INIT_BLOCK):
        hi = min(lo + INIT_BLOCK, size)
        rows, lams = decode_rows(rng.random((hi - lo, 1 + cap)), landscape.n_letters, cap)
        fits[lo:hi] = landscape.evaluate_rows(rows)
        genotypes += [bytes(row[:lam]) for row, lam in zip(rows.tolist(), lams.tolist())]
    return genotypes, fits


def mutate(g: Genotype, cfg: EaConfig, n_letters: int, rng: np.random.Generator) -> Genotype:
    """Insertion, deletion and substitution behind one Bernoulli(mutation_rate) gate.

    The substitution draws its letter before its position, because Python
    evaluates the right side of an assignment first.
    """
    if not rng.random() < cfg.mutation_rate:
        return g
    out = list(g)
    if len(g) < cfg.max_program_size:
        gap = int(rng.integers(len(out) + 1))
        out.insert(gap, int(rng.integers(n_letters)))
    if g:  # deletion and substitution act on a non-empty incoming genotype
        del out[int(rng.integers(len(out)))]
        if out:
            out[int(rng.integers(len(out)))] = int(rng.integers(n_letters))
    return tuple(out)


def one_point_crossover(
    a: Genotype, b: Genotype, cfg: EaConfig, rng: np.random.Generator
) -> tuple[Genotype, Genotype]:
    """Swap tails at independent cut points; oversize children trigger a re-draw.

    After 20 failed attempts the parents are returned unchanged, so genetic
    material is never truncated.
    """
    if rng.random() >= cfg.crossover_rate:
        return a, b
    for _ in range(20):
        ca = int(rng.integers(len(a) + 1))
        cb = int(rng.integers(len(b) + 1))
        c1 = a[:ca] + b[cb:]
        c2 = b[:cb] + a[ca:]
        if len(c1) <= cfg.max_program_size and len(c2) <= cfg.max_program_size:
            return c1, c2
    return a, b


def tournament_select(fitnesses, k: int, rng) -> int:
    """Index of the fittest of k draws with replacement; ties uniform.

    ``fitnesses`` is any indexable sequence; the EA passes a list, whose
    scalar reads are cheaper than an array's.
    """
    n = len(fitnesses)
    winners = [rng.integers(n)]
    top = fitnesses[winners[0]]
    for _ in range(k - 1):
        i = rng.integers(n)
        f = fitnesses[i]
        if f > top:
            top = f
            winners = [i]
        elif f == top:
            winners.append(i)
    if len(winners) == 1:
        return int(winners[0])
    return int(winners[rng.integers(len(winners))])


def elitist_victim(fits: np.ndarray, best_idx: int) -> int:
    """Index of the minimum of ``fits`` other than ``best_idx``, first on ties.

    ``fits[best_idx]`` must be a maximum of ``fits`` (len >= 2). Then the
    first minimum is ``best_idx`` only when every value is equal, and the
    victim is the first other index.
    """
    victim = int(fits.argmin())
    if victim == best_idx:
        return 1 if best_idx == 0 else 0
    return victim


def run(cfg: EaConfig, landscape) -> RunResult:
    """One seeded EA run; traces are recorded at every generation boundary."""
    cfg.check_fits(landscape)
    rng = make_rng(cfg.seed, STREAM_EA_RUN)
    n_letters, b = landscape.n_letters, landscape.b
    alphabet = bytes(range(n_letters))
    letter_bits = _letter_lut(n_letters).tolist()
    table = landscape.bv_fitness.item
    ends_of, memo, memo_size = block_ends, {}, MEMO_SIZE  # read here, so tests may patch them
    size, t, cap = cfg.population, cfg.tournament_size, cfg.max_program_size
    x_rate, m_rate = cfg.crossover_rate, cfg.mutation_rate
    genotypes, fits = init_population(cfg, landscape, rng)  # fits is read only to refill the level
    fit_list = fits.tolist()  # mirror of fits for scalar reads
    best_idx = int(np.argmax(fits))
    best = fit_list[best_idx]
    elitist = cfg.elitism and size > 1
    level: list[int] = []  # the indices holding the minimum, low, in descending order

    draws = UniformPool(rng)
    stack = draws.reserve(0)
    pop = stack.pop
    # most uniforms one event can take: two tournaments of t draws and a tie
    # break each, the crossover gate and 20 cut pairs, two mutations of 6
    need = 2 * (t + 1) + 41 + 2 * 6

    fitness_trace: list[float] = []
    blocks_trace: list[int] = []

    def record() -> None:
        fitness_trace.append(best)
        blocks_trace.append(block_count(genotypes[best_idx], n_letters, landscape.b))

    record()
    success_gen = 0 if is_success(landscape, best) else None

    for gen in range(1, cfg.generations + 1):
        if success_gen is not None and cfg.stop_on_success:
            break
        for _ in range(size):
            if len(stack) < need:
                draws.reserve(need)
            parents = []
            for _ in (1, 2):  # tournament_select
                w = int(pop() * size)
                top = fit_list[w]
                tied = None  # every draw of value top, in draw order, once two tie
                for _ in range(t - 1):
                    i = int(pop() * size)
                    f = fit_list[i]
                    if f > top:
                        top, w, tied = f, i, None
                    elif f == top:
                        if tied is None:
                            tied = [w, i]
                        else:
                            tied.append(i)
                parents.append(w if tied is None else tied[int(pop() * len(tied))])
            i1, i2 = parents
            c1, c2 = genotypes[i1], genotypes[i2]
            f1, f2 = fit_list[i1], fit_list[i2]  # kept while a child is its parent
            if pop() < x_rate:  # one_point_crossover
                la, lb = len(c1), len(c2)
                for _ in range(20):
                    ca = int(pop() * (la + 1))
                    cb = int(pop() * (lb + 1))
                    if ca + lb - cb <= cap and cb + la - ca <= cap:
                        c1, c2 = c1[:ca] + c2[cb:], c2[:cb] + c1[ca:]
                        f1 = f2 = None
                        break
            for child, f in ((c1, f1), (c2, f2)):
                if pop() < m_rate:  # mutate
                    lam = len(child)
                    out = bytearray(child)
                    if lam < cap:
                        gap = int(pop() * (lam + 1))
                        out.insert(gap, int(pop() * n_letters))
                    if lam:
                        del out[int(pop() * len(out))]
                        if out:
                            letter = int(pop() * n_letters)  # drawn before its position
                            out[int(pop() * len(out))] = letter
                    child = bytes(out)
                    f = None
                if f is None:  # scored as landscape.evaluate would, through the memo
                    if child.translate(None, alphabet):
                        validate_genotype(child, n_letters)
                    ends = ends_of(child, b)
                    f = memo.get(ends)
                    if f is None:
                        if len(memo) >= memo_size:
                            memo.clear()
                        f = memo[ends] = table(sum([letter_bits[c] for c in set(ends)]))
                if not level:
                    low = float(fits.min())
                    level = np.flatnonzero(fits == low)[::-1].tolist()
                if f >= low:
                    # elitist_victim: the first minimum, or the next when it is the best
                    j = -2 if elitist and level[-1] == best_idx else -1
                    victim = level[j]
                    genotypes[victim] = child
                    fit_list[victim] = f
                    if f > low:
                        fits[victim] = f
                        del level[j]
                    if f > best:
                        best_idx, best = victim, f
        record()
        if success_gen is None and is_success(landscape, best):
            success_gen = gen

    # pad traces when stopped early; the optimum is already in the population
    while len(fitness_trace) < cfg.generations + 1:
        fitness_trace.append(fitness_trace[-1])
        blocks_trace.append(blocks_trace[-1])

    return RunResult(
        best_fitness_trace=fitness_trace,
        best_blocks_trace=blocks_trace,
        success=success_gen is not None,
        generations_to_success=success_gen,
    )


def landscape_seed(master_seed: int, n: int, k: int, b: int, instance_index: int) -> int:
    return derive_seed(master_seed, STREAM_LANDSCAPE_SEED, n, k, b, instance_index)


def run_seed(master_seed: int, n: int, k: int, b: int, instance_index: int, run_index: int) -> int:
    return derive_seed(master_seed, STREAM_EA_RUN, n, k, b, instance_index, run_index)


def run_instance(cfg: EaConfig, landscape, n: int, k: int, b: int,
                 instance_index: int, master_seed: int) -> list[RunResult]:
    """cfg.runs independent runs on one landscape, each with a derived child seed."""
    return [run(replace(cfg, seed=run_seed(master_seed, n, k, b, instance_index, r)), landscape)
            for r in range(cfg.runs)]

