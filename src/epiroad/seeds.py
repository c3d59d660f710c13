"""Deterministic random-stream derivation.

All randomness flows from numpy's PCG64 generator. Child streams are derived
with ``SeedSequence([master_seed, stream_id, *indices])`` so that instance
generation, each walk campaign, and each EA run own independent,
reproducible streams. Results are therefore independent of execution order
and of the degree of parallelism.

``STREAM_FORMAT`` versions which numbers a given stream hands to which
consumer; it is recorded in every output's provenance and bumped whenever a
change to the draws alters results for an unchanged seed. Format 2: after
initialising its population, an EA run draws its scalars from a
``UniformPool`` over its stream instead of one ``Generator`` call each.
Format 3: each walk of a random-walk campaign draws one block
``random(1 + cap + length)`` from its stream and takes its start length, its
letters and every move from it (see ``analysis._lockstep_walks``); moves are
picked among the feasible ones directly, with no re-draw at the cap.
Format 4: the walks of a neutrality scan draw and step the same way, each
from its own neutrality stream, instead of one ``integers`` call per start
length, letter and move. Format 5: each random-walk campaign and neutrality
scan draws from one stream, ``make_rng(seed, stream)``, instead of one per
walk: walk w takes row w of ``random((walks, 1 + cap + length))``, drawn in
walk order, and uses it as in format 4. An adaptive-walk campaign decodes
its starts the same way from rows of ``make_rng(seed,
STREAM_ADAPTIVE_START).random((walks, 1 + cap))`` instead of one
``random_genotype`` per walk, and walk w still breaks ties from
``make_rng(seed, STREAM_ADAPTIVE_WALK, w)``. The starts take their own
stream identifier because ``SeedSequence`` pads an entropy shorter than four
words with zeros: the path (seed, STREAM_ADAPTIVE_WALK) names the same
stream as walk 0's (seed, STREAM_ADAPTIVE_WALK, 0). Everything else draws as
in format 2. Format 6: an EA run decodes its initial population as walk
starts are decoded, genotype i from row i of ``random((population, 1 +
max_creation_size))`` on its stream (length from ``u[0]``, letters from
``u[1..max_creation_size]``; see ``genotype.decode_rows``), instead of one
``random_genotype`` per genotype. The rows are drawn 64 at a time in row
order, which gives the rows of one call; its ``UniformPool`` then continues
on the same generator, and the run draws as in format 2 from there.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers, one per consumer of randomness.
STREAM_NK_INSTANCE = 1
STREAM_RANDOM_WALK = 2
STREAM_ADAPTIVE_WALK = 3
STREAM_NEUTRALITY = 4
STREAM_EA_RUN = 5
STREAM_LANDSCAPE_SEED = 6
STREAM_ADAPTIVE_START = 7

STREAM_FORMAT = 6


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Every stream opens here: each entry must be a non-negative int (numpy's too), not a bool."""
    entropy = (master_seed, *path)
    if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) or e < 0 for e in entropy):
        raise ValueError(f"seed path entries must be non-negative integers, got {entropy}")
    return np.random.SeedSequence([int(e) for e in entropy])


def make_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator owned by the child stream (master_seed, *path)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *path)))


def derive_seed(master_seed: int, *path: int) -> int:
    """A 63-bit child seed, usable wherever an integer seed is stored."""
    state = seed_sequence(master_seed, *path).generate_state(2, np.uint32)
    return int((int(state[0]) << 31) ^ int(state[1]))


class UniformPool:
    """Scalar draws served from blocks of one generator's uniforms.

    ``random()`` returns the values of ``rng.random(BLOCK)`` in order, one per
    call, and draws the next block when the current one runs out, so the
    pool's draws equal those of one long ``rng.random`` call. ``integers(high)``
    maps the next uniform u to ``int(u * high)``, which lies in [0, high) for
    1 <= high < 2**53 because u <= 1 - 2**-53. The pool stands in for the
    scalar ``Generator`` interface (``random()``, ``integers(high)``) at the
    cost of a list pop per draw instead of a numpy call.
    """

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._stack: list[float] = []

    def reserve(self, k: int) -> list[float]:
        """The pool's stack, holding at least ``k`` uniforms; ``pop()`` serves them.

        A short stack gets a fresh block put in front of the uniforms it still
        holds, which are served first, so the draw order stays that of one long
        ``rng.random`` call. The stack is always the same list: a caller may
        bind its ``pop`` once and take up to ``k`` draws after each
        ``reserve(k)``.
        """
        stack = self._stack
        if len(stack) < k:
            block = self._rng.random(max(self.BLOCK, k)).tolist()
            block.reverse()  # pop() from the end serves the block in draw order
            stack[:0] = block
        return stack

    def random(self) -> float:
        return (self._stack or self.reserve(1)).pop()

    def integers(self, high: int) -> int:
        return int((self._stack or self.reserve(1)).pop() * high)
