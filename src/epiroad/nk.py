"""Classical NK landscapes on fixed-length bit strings.

An instance attaches to each locus ``i`` a list of ``k`` epistatic loci and a
table of ``2**(k+1)`` component values drawn i.i.d. uniform from [0, 1).
Fitness is the average of the per-locus components:

    f(x) = (1/n) * sum_i tables[i][index(x_i; x_links[i])]

where the table index packs the bits big-endian with the locus's own bit
most significant. Every path (``fitness``, ``all_fitness_values``) adds the
components to 0.0 in locus order 0..n-1 and then divides by n, so a string's
value is bit-identical whichever path computes it. Instances are immutable
and fully determined by (n, k, kind, seed).

Also provided: exhaustive optimum search with a lexicographic tie-break, a
relabeling that moves the optimum to the all-ones string by permuting table
indices, closed-form ruggedness quantities (autocorrelation, correlation
length, local-optima statistics), and one-bit-flip random walks.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, replace

import numpy as np

from .seeds import STREAM_NK_INSTANCE, make_rng

# Largest n for which 2**n enumeration is considered practical.
EXHAUSTIVE_BOUND = 24

KINDS = ("adjacent", "random")

# A table add expands its term over at most the last _INNER loci (inner loops of
# up to 2**8 contiguous elements), and only as far as leaves _UNREAD loci that
# the term does not read before them: an expanded term then holds at most
# 2**(n - _UNREAD) float64s, an eighth of the table (see _chunk_values).
_INNER = 8
_UNREAD = 3


@dataclass(frozen=True, eq=False)
class NkInstance:
    n: int
    k: int
    kind: str
    seed: int
    links: np.ndarray  # (n, k) int64, sorted per row, never contains the locus itself
    tables: np.ndarray  # (n, 2**(k+1)) float64 in [0, 1)
    mask: int = 0  # xor relabeling applied by relabel; 0 = raw instance


def check_k(n: int, k: int) -> None:
    """Each locus links to k of the other n - 1 loci."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k}")


def check_n(n: int) -> None:
    """The 2**n strings are enumerated, which is practical up to EXHAUSTIVE_BOUND."""
    if n > EXHAUSTIVE_BOUND:
        raise ValueError(f"n={n} exceeds the exhaustive bound {EXHAUSTIVE_BOUND}")


def generate(n: int, k: int, kind: str, seed: int) -> NkInstance:
    """Seeded instance with adjacent (periodic) or uniformly random link sets."""
    check_k(n, k)
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

    Element-wise identical to :func:`fitness`: every element starts at 0.0,
    adds its locus components in locus order 0..n-1 and is divided by n.
    """
    check_n(inst.n)
    return _chunk_values(inst, 0, 1 << inst.n)


def _chunk_values(inst: NkInstance, lo: int, hi: int) -> np.ndarray:
    """Elements [lo, hi) of the table; the benchmark recorder counts passes here.

    Locus i's term reads only the bits of i and its links, so its table, axes
    in ascending locus order, is added over all strings in one broadcast. A
    term that is broadcast along a late locus would give the add inner loops
    of 2 elements, so the table is viewed as (2,) * (n - t) + (2**t,) and the
    term is first expanded over the last t loci: the add then runs inner loops
    of 2**t contiguous elements. t is the largest value up to _INNER that
    leaves _UNREAD loci the term does not read among the first n - t, so the
    expanded term holds at most an eighth of the table; a term that leaves
    fewer than _UNREAD loci unread (k close to n) gets t = 0 and is added as
    it is. Loci are added in order 0..n-1 and the sum is then divided by n.
    """
    n, k = inst.n, inst.k
    out = np.zeros(1 << n)
    for i in range(n):
        loci = [i, *inst.links[i].tolist()]
        shape = [2 if j in loci else 1 for j in range(n)]
        table = inst.tables[i].reshape((2,) * (k + 1))
        term = table.transpose(sorted(range(k + 1), key=loci.__getitem__)).reshape(shape)
        unread = [j for j in range(n) if j not in loci][:_UNREAD]
        t = min(_INNER, n - 1 - unread[-1]) if len(unread) == _UNREAD else 0
        high = shape[:n - t]
        rows = out.reshape((2,) * (n - t) + (1 << t,))
        rows += np.broadcast_to(term, high + [2] * t).reshape(high + [1 << t])
    out /= n
    return out[lo:hi]


def exhaustive_optimum(inst: NkInstance) -> tuple[tuple[int, ...], float]:
    """Argmax over all 2**n strings; the first maximum is the lexicographic smallest."""
    vals = all_fitness_values(inst)
    best = int(np.argmax(vals))
    return unpack_bits(best, inst.n), float(vals[best])


def normalize_to_one(inst: NkInstance) -> NkInstance:
    """Relabel the space so the optimum becomes the all-ones string."""
    opt_bits, _ = exhaustive_optimum(inst)
    return relabel(inst, ((1 << inst.n) - 1) ^ pack_bits(opt_bits))


def relabel(inst: NkInstance, m: int) -> NkInstance:
    """The instance with f'(x) = f(x xor m).

    Xor-permutes each locus table's indices with the mask bits of the locus
    and its links, so f'(x) adds the very summands of f(x xor m) in the same
    order. The multiset of the 2**n fitness values is unchanged; the instance
    is returned as-is for m = 0.
    """
    if m == 0:
        return inst
    n = inst.n
    mbit = [(m >> (n - 1 - i)) & 1 for i in range(n)]
    new_tables = np.empty_like(inst.tables)
    for i in range(n):
        mi = mbit[i]
        for l in inst.links[i]:
            mi = (mi << 1) | mbit[int(l)]
        new_tables[i] = inst.tables[i, np.arange(1 << (inst.k + 1)) ^ mi]
    return replace(inst, tables=new_tables, mask=inst.mask ^ m)


def count_local_optima(inst: NkInstance) -> int:
    """Strings strictly fitter than all n one-bit-flip neighbors."""
    view = all_fitness_values(inst).reshape((2,) * inst.n)
    lo = np.ones(view.shape, dtype=bool)
    for j in range(inst.n):  # reversing axis j flips locus j's bit
        lo &= view > np.flip(view, j)
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
    check_k(n, k)
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
    check_k(n, k)
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
    """The instance's JSON-ready fields; ``tables`` is one base64 string.

    The string encodes the tables' raw little-endian float64 bytes, row by
    row, so reading it back gives every value bit for bit.
    """
    return {
        "n": inst.n,
        "k": inst.k,
        "kind": inst.kind,
        "seed": inst.seed,
        "links": inst.links.tolist(),
        "tables": base64.b64encode(inst.tables.astype("<f8").tobytes()).decode("ascii"),
        "mask": inst.mask,
    }


def instance_from_dict(d: dict) -> NkInstance:
    """The instance that :func:`instance_to_dict` wrote, checked field by field.

    ``tables`` must be a padded base64 string, with no other characters, of
    exactly ``8 * n * 2**(k+1)`` bytes: little-endian float64 values in
    ``[0, 1)``; ``mask`` may be absent. A missing or malformed field raises
    ValueError naming it.
    """
    if type(d) is not dict:
        raise ValueError(f"nk must be an object, got {type(d).__name__}")
    for key in ("n", "k", "kind", "seed", "links", "tables"):
        if key not in d:
            raise ValueError(f"nk is missing key {key!r}")
    n, k = d["n"], d["k"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if type(k) is not int or not 0 <= k < n:
        raise ValueError(f"k must be an int in [0, {n - 1}], got {k!r}")
    # object dtype keeps the raw JSON values, where a numeric array would turn
    # [True, 2] into [1, 2] and an int cast [1, 2.5] into [1, 2]
    links = np.asarray(d["links"], dtype=object).reshape(n, k)
    for i, row in enumerate(links.tolist()):
        if any(type(v) is not int for v in row) or \
                len((set(row) - {i}) & set(range(n))) != k or row != sorted(row):
            raise ValueError(f"links row {i} must hold {k} distinct loci in [0, {n}) "
                             f"other than {i}, sorted, got {row}")
    text = d["tables"]
    if not isinstance(text, str):
        raise ValueError(f"tables must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"tables must be a base64 string: {exc}") from None
    if len(raw) != 8 * n << (k + 1):
        raise ValueError(f"tables hold {len(raw)} bytes, but n={n}, k={k} needs "
                         f"{8 * n << (k + 1)} (n * 2**(k+1) float64 values)")
    # the astype copy is writable and in native byte order
    tables = np.frombuffer(raw, "<f8").astype(np.float64).reshape(n, 1 << (k + 1))
    if not ((tables >= 0.0) & (tables < 1.0)).all():
        raise ValueError("tables must hold values in [0, 1)")
    if d["kind"] not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {d['kind']!r}")
    seed, mask = d["seed"], d.get("mask", 0)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    if type(mask) is not int or not 0 <= mask < 1 << n:
        raise ValueError(f"mask must be an int in [0, 2**{n}), got {mask!r}")
    return NkInstance(n=n, k=k, kind=d["kind"], seed=seed, links=links.astype(np.int64),
                      tables=tables, mask=mask)
