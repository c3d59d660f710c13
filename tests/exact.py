"""Exact expectations of the walk campaigns on genotype spaces small enough to list.

With few letters and a small length cap, every genotype up to the cap can be
enumerated. A uniform walk is then a Markov chain on that list, and a
campaign's expected output is plain linear algebra over it (Weinberger 1990,
"Correlated and uncorrelated fitness landscapes and how to tell the
difference"; Stadler 1996, "Landscapes and their correlation functions").

The operations and the start distribution are written out here from their
definitions, not taken from ``epiroad.genotype``, so that a misreading the
campaigns share with their scalar twins still shows.
"""

from __future__ import annotations

import itertools

import numpy as np


def operations(g: tuple, n: int, cap: int):
    """Each operation's outcome, with multiplicity: every insertion of every letter in every
    gap while ``len(g) < cap``, every substitution by another letter, every deletion."""
    lam = len(g)
    if lam < cap:
        for i in range(lam + 1):
            for c in range(n):
                yield g[:i] + (c,) + g[i:]
    for i in range(lam):
        for c in range(n):
            if c != g[i]:
                yield g[:i] + (c,) + g[i + 1 :]
        yield g[:i] + g[i + 1 :]


class Space:
    """Every genotype of length 0..cap over n letters, and the operations between them.

    ``source[j]`` and ``target[j]`` are the indices of operation j's genotype
    and outcome; ``moves[i]`` counts genotype i's operations. ``start`` is the
    walks' start distribution: the length uniform on 0..cap, then each letter
    uniform and independent.
    """

    def __init__(self, n: int, cap: int):
        self.genotypes = [g for lam in range(cap + 1)
                          for g in itertools.product(range(n), repeat=lam)]
        index = {g: i for i, g in enumerate(self.genotypes)}
        self.source, self.target = np.array(
            [(i, index[h]) for i, g in enumerate(self.genotypes) for h in operations(g, n, cap)]).T
        self.moves = np.bincount(self.source, minlength=len(self.genotypes))
        lams = np.array([len(g) for g in self.genotypes])
        self.start = float(n) ** -lams / (cap + 1)

    def fitness(self, landscape) -> np.ndarray:
        """Every genotype's fitness on ``landscape``, in list order."""
        return np.array([landscape.evaluate(g) for g in self.genotypes])

    def step(self, v: np.ndarray) -> np.ndarray:
        """``v · P`` for P the uniform walk's transition matrix: one uniform operation."""
        return np.bincount(self.target, weights=(v / self.moves)[self.source],
                           minlength=len(v))

    def classes(self, fitness: np.ndarray) -> np.ndarray:
        """(genotypes, 3) counts of each genotype's operations to lower, equal, higher fitness."""
        f, g = fitness[self.target], fitness[self.source]
        counts = [np.bincount(self.source, weights=side, minlength=len(fitness))
                  for side in (f < g, f == g, f > g)]
        return np.stack(counts, axis=1).astype(np.int64)


def neutrality_sums(space: Space, fitness: np.ndarray, length: int) -> np.ndarray:
    """Expected (lower, equal, higher) counts per walk over its length + 1 visited genotypes.

    The sum of start · Pˢ · C over s = 0..length, with C the ``classes`` matrix.
    """
    c = space.classes(fitness)
    v, sums = space.start, np.zeros(3)
    for _ in range(length + 1):
        sums += v @ c
        v = space.step(v)
    return sums
