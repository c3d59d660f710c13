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

A run's randomness comes from its own stream: the initial population is drawn
from the stream's ``Generator``, every later draw from a ``UniformPool`` over
the same generator (stream format 2). The operators only call ``random()``
and ``integers(high)``, so they take either.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .genotype import Genotype, block_count, random_genotype
from .landscapes import is_success
from .seeds import STREAM_EA_RUN, STREAM_LANDSCAPE_SEED, UniformPool, derive_seed, make_rng


# Accepted values per annotated field type; bool is never an int or a float here.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) != (f.type == "bool") or \
                    not isinstance(value, _FIELD_TYPES[f.type]):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
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


@dataclass
class RunResult:
    best_fitness_trace: list[float]
    best_blocks_trace: list[int]
    success: bool
    generations_to_success: int | None = None


def init_population(cfg: EaConfig, n_letters: int, rng: np.random.Generator) -> list[Genotype]:
    return [random_genotype(cfg.max_creation_size, n_letters, rng) for _ in range(cfg.population)]


def mutate(g: Genotype, cfg: EaConfig, n_letters: int, rng: np.random.Generator) -> Genotype:
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
    if cfg.max_program_size > landscape.lambda_max:
        raise ValueError(
            f"max_program_size={cfg.max_program_size} exceeds landscape "
            f"lambda_max={landscape.lambda_max}"
        )
    rng = make_rng(cfg.seed, STREAM_EA_RUN)
    n_letters = landscape.n_letters
    pop = init_population(cfg, n_letters, rng)
    draws = UniformPool(rng)
    fits = np.array([landscape.evaluate(g) for g in pop])
    fit_list = fits.tolist()  # mirror of fits for scalar reads
    best_idx = int(np.argmax(fits))
    elitist = cfg.elitism and cfg.population > 1

    fitness_trace: list[float] = []
    blocks_trace: list[int] = []

    def record() -> None:
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
            c1, c2 = one_point_crossover(pop[i1], pop[i2], cfg, draws)
            for child in (mutate(c1, cfg, n_letters, draws), mutate(c2, cfg, n_letters, draws)):
                f = landscape.evaluate(child)
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


@dataclass
class InstanceRuns:
    """All runs of one config on one landscape instance."""

    n: int
    k: int
    b: int
    instance_index: int
    instance_seed: int
    results: list[RunResult] = field(default_factory=list)


def landscape_seed(master_seed: int, n: int, k: int, b: int, instance_index: int) -> int:
    return derive_seed(master_seed, STREAM_LANDSCAPE_SEED, n, k, b, instance_index)


def run_seed(master_seed: int, n: int, k: int, b: int, instance_index: int, run_index: int) -> int:
    return derive_seed(master_seed, STREAM_EA_RUN, n, k, b, instance_index, run_index)


def run_instance(cfg: EaConfig, landscape, n: int, k: int, b: int,
                 instance_index: int, master_seed: int) -> InstanceRuns:
    """cfg.runs independent runs on one landscape, each with a derived child seed."""
    out = InstanceRuns(n=n, k=k, b=b, instance_index=instance_index,
                       instance_seed=landscape.nk.seed)
    for r in range(cfg.runs):
        run_cfg = replace(cfg, seed=run_seed(master_seed, n, k, b, instance_index, r))
        out.results.append(run(run_cfg, landscape))
    return out

