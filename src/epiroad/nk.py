"""Classical NK landscapes on fixed-length bit strings.

An instance attaches to each locus ``i`` a list of ``k`` epistatic loci and a
table of ``2**(k+1)`` component values drawn i.i.d. uniform from [0, 1).
Fitness is the average of the per-locus components:

    f(x) = (1/n) * sum_i tables[i][index(x_i; x_links[i])]

where the table index packs the bits big-endian with the locus's own bit
most significant. Instances are immutable and fully determined by
(n, k, kind, seed).

Also provided: exhaustive optimum search with a lexicographic tie-break, a
relabeling that moves the optimum to the all-ones string by permuting table
indices, closed-form ruggedness quantities (autocorrelation, correlation
length, local-optima statistics), and one-bit-flip random walks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .seeds import STREAM_NK_INSTANCE, make_rng

# Largest n for which 2**n enumeration is considered practical.
EXHAUSTIVE_BOUND = 24

_CHUNK = 1 << 20

KINDS = ("adjacent", "random")


@dataclass(frozen=True, eq=False)
class NkInstance:
    n: int
    k: int
    kind: str
    seed: int
    links: np.ndarray  # (n, k) int64, sorted per row, never contains the locus itself
    tables: np.ndarray  # (n, 2**(k+1)) float64 in [0, 1)
    mask: int = 0  # xor relabeling applied by normalize_to_one; 0 = raw instance


def generate(n: int, k: int, kind: str, seed: int) -> NkInstance:
    """Seeded instance with adjacent (periodic) or uniformly random link sets."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    rng = make_rng(seed, STREAM_NK_INSTANCE)
    links = np.empty((n, k), dtype=np.int64)
    if kind == "adjacent":
        # nearest loci first, right neighbor before left, duplicates skipped
        offsets: list[int] = []
        d = 1
        while len(offsets) < k:
            for off in (d, -d):
                if len(offsets) < k and off % n not in [o % n for o in offsets]:
                    offsets.append(off)
            d += 1
        for i in range(n):
            links[i] = np.sort([(i + off) % n for off in offsets])
    else:
        for i in range(n):
            others = np.delete(np.arange(n), i)
            links[i] = np.sort(rng.choice(others, size=k, replace=False))
    tables = rng.random((n, 1 << (k + 1)))
    return NkInstance(n=n, k=k, kind=kind, seed=seed, links=links, tables=tables)


def fitness(inst: NkInstance, x) -> float:
    """Average of the n component values selected by ``x``.

    Summation is in locus order starting from 0.0, which fixes the floating
    point result; callers may rely on bit-identical values for identical
    inputs.
    """
    if len(x) != inst.n:
        raise ValueError(f"bit string length {len(x)} != n={inst.n}")
    tables = inst.tables
    links = inst.links
    total = 0.0
    for i in range(inst.n):
        idx = x[i]
        for l in links[i]:
            idx = (idx << 1) | x[l]
        total += tables[i, idx]
    return float(total / inst.n)


def pack_bits(x) -> int:
    """Bit string -> integer, locus 0 most significant (lexicographic order)."""
    v = 0
    for bit in x:
        v = (v << 1) | int(bit)
    return v


def unpack_bits(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (n - 1 - i)) & 1 for i in range(n))


def all_fitness_values(inst: NkInstance) -> np.ndarray:
    """Fitness of every bit string, indexed by :func:`pack_bits`.

    Element-wise identical to :func:`fitness` (same addition order).
    """
    n = inst.n
    if n > EXHAUSTIVE_BOUND:
        raise ValueError(f"n={n} exceeds the exhaustive bound {EXHAUSTIVE_BOUND}")
    out = np.empty(1 << n)
    for lo in range(0, 1 << n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << n)
        out[lo:hi] = _chunk_values(inst, lo, hi)
    return out


def _chunk_values(inst: NkInstance, lo: int, hi: int) -> np.ndarray:
    xs = np.arange(lo, hi, dtype=np.int64)
    acc = np.zeros(hi - lo)
    n = inst.n
    for i in range(n):
        idx = (xs >> (n - 1 - i)) & 1
        for l in inst.links[i]:
            idx = (idx << 1) | ((xs >> (n - 1 - int(l))) & 1)
        acc += inst.tables[i, idx]
    return acc / n


def exhaustive_optimum(inst: NkInstance) -> tuple[tuple[int, ...], float]:
    """Argmax over all 2**n strings; ties resolved to the lexicographic smallest."""
    n = inst.n
    if n > EXHAUSTIVE_BOUND:
        raise ValueError(f"n={n} exceeds the exhaustive bound {EXHAUSTIVE_BOUND}")
    best_val = -math.inf
    best_x = 0
    for lo in range(0, 1 << n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << n)
        vals = _chunk_values(inst, lo, hi)
        m = int(np.argmax(vals))
        if vals[m] > best_val:
            best_val = float(vals[m])
            best_x = lo + m
    return unpack_bits(best_x, n), best_val


def normalize_to_one(inst: NkInstance) -> NkInstance:
    """Relabel the space so the optimum becomes the all-ones string.

    Realizes f'(x) = f(x xor m), with m the complement of the original
    optimum, by xor-permuting each locus table's indices with the mask bits
    of the locus and its links. The multiset of the 2**n fitness values is
    unchanged; the instance is returned as-is when the optimum already is
    all-ones.
    """
    opt_bits, _ = exhaustive_optimum(inst)
    n, k = inst.n, inst.k
    m = ((1 << n) - 1) ^ pack_bits(opt_bits)
    if m == 0:
        return inst
    mbit = [(m >> (n - 1 - i)) & 1 for i in range(n)]
    new_tables = np.empty_like(inst.tables)
    for i in range(n):
        mi = mbit[i]
        for l in inst.links[i]:
            mi = (mi << 1) | mbit[int(l)]
        perm = np.arange(1 << (k + 1)) ^ mi
        new_tables[i] = inst.tables[i, perm]
    return replace(inst, tables=new_tables, mask=inst.mask ^ m)


def count_local_optima(inst: NkInstance) -> int:
    """Strings strictly fitter than all n one-bit-flip neighbors."""
    vals = all_fitness_values(inst)
    ids = np.arange(1 << inst.n)
    lo = np.ones(1 << inst.n, dtype=bool)
    for j in range(inst.n):
        lo &= vals > vals[ids ^ (1 << j)]
    return int(lo.sum())


def random_walk(inst: NkInstance, start, length: int, rng: np.random.Generator) -> np.ndarray:
    """Fitness series of a one-bit-flip random walk, length + 1 values."""
    x = list(start)
    series = np.empty(length + 1)
    series[0] = fitness(inst, x)
    for t in range(1, length + 1):
        j = int(rng.integers(inst.n))
        x[j] ^= 1
        series[t] = fitness(inst, x)
    return series


def theoretical_rho(n: int, k: int, s: int) -> float:
    """Random-walk autocorrelation at lag s: (1 - (k+1)/n) ** s."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k}")
    if s < 0:
        raise ValueError(f"lag must be >= 0, got {s}")
    return (1.0 - (k + 1) / n) ** s


def theoretical_tau(n: int, k: int) -> float:
    """Correlation length -1 / ln(1 - (k+1)/n); requires k + 1 < n."""
    if not 0 <= k < n - 1:
        raise ValueError(f"k must lie in [0, {n - 2}] so the log argument is positive, got {k}")
    return -1.0 / math.log(1.0 - (k + 1) / n)


_SIGMA_UNIFORM = math.sqrt(1.0 / 12.0)


def theoretical_optima_stats(
    n: int, k: int, mu: float = 0.5, sigma: float = _SIGMA_UNIFORM
) -> tuple[float, float]:
    """Approximate (mean, variance) of local-optima fitness for large k.

    Defaults are the uniform-component constants mu = 1/2, sigma = sqrt(1/12).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k}")
    kk = k + 1
    mean = mu + sigma * math.sqrt(2.0 * math.log(kk) / kk)
    var = kk * sigma**2 / (n * (kk + 2.0 * (k + 2) * math.log(kk)))
    return mean, var


def expected_optima_count(n: int) -> float:
    """Expected number of local optima when k = n - 1: 2**n / (n + 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0**n / (n + 1)


def instance_to_dict(inst: NkInstance) -> dict:
    return {
        "n": inst.n,
        "k": inst.k,
        "kind": inst.kind,
        "seed": inst.seed,
        "links": inst.links.tolist(),
        "tables": inst.tables.tolist(),
        "mask": inst.mask,
    }


def instance_from_dict(d: dict) -> NkInstance:
    n, k = d["n"], d["k"]
    links = np.asarray(d["links"], dtype=np.int64).reshape(n, k)
    for i, row in enumerate(links.tolist()):
        if len((set(row) - {i}) & set(range(n))) != k:
            raise ValueError(f"links row {i} must hold {k} distinct loci in [0, {n}) "
                             f"other than {i}, got {row}")
    tables = np.asarray(d["tables"], dtype=np.float64)
    if tables.shape != (n, 1 << (k + 1)):
        raise ValueError(f"table shape {tables.shape} inconsistent with n={n}, k={k}")
    return NkInstance(
        n=n, k=k, kind=d["kind"], seed=d["seed"],
        links=links, tables=tables, mask=d.get("mask", 0),
    )


def save_instance(inst: NkInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst)))


def load_instance(path) -> NkInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))
