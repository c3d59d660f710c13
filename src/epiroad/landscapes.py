"""Variable-length fitness landscapes built on block detection.

Two landscape families share one evaluation interface (``n_letters``, ``b``,
``lambda_max``, ``evaluate``, ``evaluate_rows``, ``optimum_value``):

* ``RoyalRoadLandscape``: fitness is the fraction of letters with a block
  present, so every block contributes 1/n independently.
* ``ErLandscape`` (Epistatic Road): fitness is an NK evaluation of the
  genotype's block vector. The NK instance is relabeled so the all-blocks
  vector is its global optimum, which makes assembling all n blocks the end
  of the road.

ER fitness factors through the block vector: two genotypes with equal block
vectors get bit-identical fitness, because both read the same entry of a
table precomputed with the NK module's fixed summation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nk
from .genotype import BlockParams, block_bits, block_bits_batch

FORMAT_NAME = "epiroad-landscape"
FORMAT_VERSION = 1

# Absolute tolerance for optimum detection; table values are plain float64
# decimals, so exact-match semantics effectively hold.
SUCCESS_EPS = 1e-12


@dataclass(frozen=True)
class RoyalRoadLandscape:
    params: BlockParams

    @property
    def n_letters(self) -> int:
        return self.params.n_letters

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def lambda_max(self) -> int:
        return self.params.lambda_max

    @property
    def optimum_value(self) -> float:
        return 1.0

    def evaluate(self, g) -> float:
        return rr_fitness(self, g)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        bits = block_bits_batch(rows, self.n_letters, self.b)
        counts = np.array([int(v).bit_count() for v in bits], dtype=np.float64)
        return counts / self.n_letters


@dataclass(frozen=True, eq=False)
class ErLandscape:
    params: BlockParams
    nk: nk.NkInstance
    optimum_value: float
    bv_fitness: np.ndarray  # (2**n,) NK fitness of each packed block vector

    @property
    def n_letters(self) -> int:
        return self.params.n_letters

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def lambda_max(self) -> int:
        return self.params.lambda_max

    def evaluate(self, g) -> float:
        return er_fitness(self, g)

    def bv_value(self, bits: int) -> float:
        return float(self.bv_fitness[bits])

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.bv_fitness[block_bits_batch(rows, self.n_letters, self.b)]


def _check_length(landscape, g) -> None:
    if len(g) > landscape.params.lambda_max:
        raise ValueError(
            f"genotype length {len(g)} exceeds lambda_max={landscape.params.lambda_max}"
        )


def rr_fitness(landscape: RoyalRoadLandscape, g) -> float:
    """Fraction of letters whose block is present: n_blocks / n_letters."""
    _check_length(landscape, g)
    bits = block_bits(g, landscape.n_letters, landscape.b)
    return bits.bit_count() / landscape.n_letters


def er_fitness(landscape: ErLandscape, g) -> float:
    """NK fitness of the genotype's block vector."""
    _check_length(landscape, g)
    idx = block_bits(g, landscape.n_letters, landscape.b)
    return float(landscape.bv_fitness[idx])


def er_build(n: int, k: int, b: int, lambda_max: int, seed: int) -> ErLandscape:
    """Random-neighborhood NK instance, relabeled so full block assembly is optimal."""
    params = BlockParams(n_letters=n, b=b, lambda_max=lambda_max)
    inst = nk.normalize_to_one(nk.generate(n, k, kind="random", seed=seed))
    vals = nk.all_fitness_values(inst)
    optimum = float(vals[-1])  # packed index of the all-ones block vector
    return ErLandscape(params=params, nk=inst, optimum_value=optimum, bv_fitness=vals)


def is_success(landscape, f: float) -> bool:
    """True iff ``f`` reaches the landscape optimum within SUCCESS_EPS."""
    return f >= landscape.optimum_value - SUCCESS_EPS


def landscape_to_dict(landscape: ErLandscape, provenance: dict | None = None) -> dict:
    d = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "params": {
            "n_letters": landscape.params.n_letters,
            "b": landscape.params.b,
            "lambda_max": landscape.params.lambda_max,
        },
        "nk": nk.instance_to_dict(landscape.nk),
        "optimum_value": landscape.optimum_value,
    }
    if provenance is not None:
        d["provenance"] = provenance
    return d


def landscape_from_dict(d: dict) -> ErLandscape:
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document: format={d.get('format')!r}")
    p = d["params"]
    params = BlockParams(n_letters=p["n_letters"], b=p["b"], lambda_max=p["lambda_max"])
    inst = nk.instance_from_dict(d["nk"])
    if inst.n != params.n_letters:
        raise ValueError(f"nk n={inst.n} inconsistent with n_letters={params.n_letters}")
    vals = nk.all_fitness_values(inst)
    optimum = float(vals[-1])
    if optimum != d["optimum_value"]:
        raise ValueError(
            f"stored optimum {d['optimum_value']!r} does not match tables ({optimum!r})"
        )
    if optimum != vals.max():
        raise ValueError(f"all-blocks value {optimum!r} is not the table maximum {vals.max()!r}")
    return ErLandscape(params=params, nk=inst, optimum_value=optimum, bv_fitness=vals)


def save_landscape(landscape: ErLandscape, path, provenance: dict | None = None) -> None:
    Path(path).write_text(json.dumps(landscape_to_dict(landscape, provenance)))


def load_landscape(path) -> ErLandscape:
    return landscape_from_dict(json.loads(Path(path).read_text()))
