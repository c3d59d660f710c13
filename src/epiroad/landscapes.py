"""Variable-length fitness landscapes built on block detection.

Every landscape here scores a genotype by its packed n-bit block vector: a
``BlockLandscape`` holds one fitness value per block vector and evaluates a
genotype with a single table lookup. Royal Road and Epistatic Road are the
two ends of the family:

* ``royal_road`` (Royal Road): the additive table popcount / n, so every
  block contributes 1/n independently.
* ``er_build`` (Epistatic Road): the table of an NK instance's fitness over
  the block vectors. The instance is relabeled so the all-blocks vector is
  its global optimum, which makes assembling all n blocks the end of the
  road.

Two genotypes with equal block vectors get bit-identical fitness, because
both read the same table entry; Epistatic Road tables are computed with the
NK module's fixed summation order.

Landscape files, and the CLI's output files, are written through
``open_atomic``, so a killed or failed write never leaves a truncated file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nk
from .genotype import BlockParams, block_bits, block_bits_batch

FORMAT_NAME = "epiroad-landscape"
# 2: nk.tables is base64 of raw little-endian float64 bytes (1 held decimal lists)
FORMAT_VERSION = 2

# Absolute tolerance for optimum detection; table values are plain float64
# decimals, so exact-match semantics effectively hold.
SUCCESS_EPS = 1e-12

# Row length of er_build's in-place relabeling. Its temporaries are 3 rows,
# which at 2**12 (32 KiB each) stay in cache and out of the process's peak.
_ROW = 1 << 12


@dataclass(frozen=True, eq=False)
class BlockLandscape:
    params: BlockParams
    bv_fitness: np.ndarray  # (2**n,) fitness of each packed block vector
    optimum_value: float
    nk: nk.NkInstance | None = None  # the Epistatic Road's relabeled instance

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
        p = self.params
        if len(g) > p.lambda_max:
            raise ValueError(f"genotype length {len(g)} exceeds lambda_max={p.lambda_max}")
        return self.bv_fitness.item(block_bits(g, p.n_letters, p.b))

    def bv_value(self, bits: int) -> float:
        return float(self.bv_fitness[bits])

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.bv_fitness[block_bits_batch(rows, self.n_letters, self.b)]


# The benchmark's recorder patches the methods through this name.
ErLandscape = BlockLandscape


def royal_road(params: BlockParams) -> BlockLandscape:
    """Fraction of letters whose block is present: n_blocks / n_letters."""
    n = params.n_letters
    nk.check_n(n)
    counts = np.zeros(1)
    for _ in range(n):  # a new top bit adds one block to every lower vector
        counts = np.concatenate([counts, counts + 1])
    return BlockLandscape(params=params, bv_fitness=counts / n, optimum_value=1.0)


def er_build(n: int, k: int, b: int, lambda_max: int, seed: int) -> BlockLandscape:
    """Random-neighborhood NK instance, relabeled so full block assembly is optimal.

    One pass over the 2**n strings: the relabeled table is a permutation of
    the raw one, f'(x) = f(x xor m), which adds the same summands in the same
    order as the relabeled instance would. The permutation is done in place,
    so only one 2**n table is ever alive.
    """
    params = BlockParams(n_letters=n, b=b, lambda_max=lambda_max)
    raw = nk.generate(n, k, kind="random", seed=seed)
    table = nk.all_fitness_values(raw)
    m = ((1 << n) - 1) ^ int(np.argmax(table))  # first max: the lexicographic tie-break
    _xor_permute(table, m)
    return BlockLandscape(params=params, bv_fitness=table, optimum_value=float(table[-1]),
                          nk=nk.relabel(raw, m))


def _xor_permute(vals: np.ndarray, m: int) -> None:
    """In place, vals[x] becomes vals[x xor m] for every x in [0, len(vals)).

    vals is viewed as rows of at most _ROW: row h takes row h xor m_hi, read
    through columns l xor m_lo, where m_hi and m_lo are m's row and column bits.
    The gathers of a pair of rows are copies, so the pair is swapped safely.
    """
    width = min(len(vals), _ROW)
    rows = vals.reshape(-1, width)
    cols = np.arange(width) ^ (m % width)
    for h in range(len(rows)):
        g = h ^ (m // width)
        if h <= g:  # h == g when m_hi == 0: both sides gather the same row
            rows[h], rows[g] = rows[g][cols], rows[h][cols]


def is_success(landscape, f: float) -> bool:
    """True iff ``f`` reaches the landscape optimum within SUCCESS_EPS."""
    return f >= landscape.optimum_value - SUCCESS_EPS


def landscape_to_dict(landscape: BlockLandscape, provenance: dict | None = None) -> dict:
    if landscape.nk is None:
        raise ValueError("only Epistatic Road landscapes are saved: a Royal Road landscape "
                         "has no NK instance")
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


def landscape_from_dict(d: dict) -> BlockLandscape:
    if type(d) is not dict:
        raise ValueError(f"not a {FORMAT_NAME} document: a JSON {type(d).__name__}")
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document: format={d.get('format')!r}")
    version = d.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"landscape file version {version!r} is not {FORMAT_VERSION}; "
                         f"rerun `epiroad gen` to rebuild it")
    for key in ("params", "nk", "optimum_value"):
        if key not in d:
            raise ValueError(f"landscape file is missing key {key!r}")
    p = d["params"]
    if type(p) is not dict:
        raise ValueError(f"params must be an object, got {type(p).__name__}")
    for name in ("n_letters", "b", "lambda_max"):
        if name not in p:
            raise ValueError(f"landscape file is missing key 'params.{name}'")
        if type(p[name]) is not int:
            raise ValueError(f"params.{name} must be an int, got {p[name]!r}")
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
    return BlockLandscape(params=params, bv_fitness=vals, optimum_value=optimum, nk=inst)


def save_landscape(landscape: BlockLandscape, path, provenance: dict | None = None) -> None:
    text = json.dumps(landscape_to_dict(landscape, provenance))
    with open_atomic(path) as fh:
        fh.write(text)


def load_landscape(path) -> BlockLandscape:
    return landscape_from_dict(json.loads(Path(path).read_text()))


@contextmanager
def open_atomic(path, newline: str | None = None):
    """A text file handle whose content replaces ``path`` only when the block ends.

    Writes go to a temporary file beside ``path``, which ``os.replace`` then
    renames over it. If the block raises, the temporary file is removed and
    ``path`` is left absent or as it was. A process killed mid-write leaves
    ``path`` intact too, and a dot-named ``.tmp`` file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
