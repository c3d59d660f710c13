import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiroad import nk
from epiroad.seeds import make_rng


def make_instance(tables, links=None, kind="random", seed=0):
    tables = np.asarray(tables, dtype=np.float64)
    n = tables.shape[0]
    k = int(np.log2(tables.shape[1])) - 1
    if links is None:
        links = np.zeros((n, 0), dtype=np.int64)
    return nk.NkInstance(n=n, k=k, kind=kind, seed=seed,
                         links=np.asarray(links, dtype=np.int64), tables=tables)


def oracle_fitness(inst, x):
    # independent index path: binary string -> int, reversed accumulation
    total = 0.0
    for i in range(inst.n):
        pattern = [x[i]] + [x[int(l)] for l in inst.links[i]]
        idx = int("".join(str(int(v)) for v in pattern), 2)
        total += inst.tables[i, idx]
    return float(total / inst.n)


def gather_oracle_values(inst):
    # vectorised reference: per locus, pack every string's bits of the locus
    # and its links into table indices with int64 shifts, then gather
    n = inst.n
    xs = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(1 << n)
    for i in range(n):
        idx = (xs >> (n - 1 - i)) & 1
        for l in inst.links[i]:
            idx = (idx << 1) | ((xs >> (n - 1 - int(l))) & 1)
        acc += inst.tables[i, idx]
    return acc / n


def test_generate_k0_has_no_links():
    inst = nk.generate(8, 0, "random", seed=1)
    assert inst.links.shape == (8, 0)
    assert inst.tables.shape == (8, 2)


@pytest.mark.parametrize("kind", ["adjacent", "random"])
def test_generate_full_coupling(kind):
    inst = nk.generate(8, 7, kind, seed=2)
    for i in range(8):
        assert sorted(inst.links[i]) == sorted(set(range(8)) - {i})


def test_generate_adjacent_periodic():
    inst = nk.generate(8, 2, "adjacent", seed=3)
    for i in range(8):
        assert sorted(inst.links[i]) == sorted({(i + 1) % 8, (i - 1) % 8})
    inst4 = nk.generate(8, 4, "adjacent", seed=3)
    for i in range(8):
        assert sorted(inst4.links[i]) == sorted({(i + d) % 8 for d in (1, -1, 2, -2)})


def test_generate_deterministic():
    a = nk.generate(8, 3, "random", seed=42)
    b = nk.generate(8, 3, "random", seed=42)
    assert np.array_equal(a.links, b.links)
    assert np.array_equal(a.tables, b.tables)
    c = nk.generate(8, 3, "random", seed=43)
    assert not np.array_equal(a.tables, c.tables)


def test_generate_rejects_bad_k():
    with pytest.raises(ValueError):
        nk.generate(8, 8, "random", seed=0)
    with pytest.raises(ValueError):
        nk.generate(8, -1, "random", seed=0)


def test_tables_in_unit_interval():
    inst = nk.generate(10, 4, "random", seed=5)
    assert inst.tables.min() >= 0.0
    assert inst.tables.max() < 1.0


def test_fitness_hand_example():
    inst = make_instance([[0.2, 0.6], [0.4, 0.8]])
    assert abs(nk.fitness(inst, (1, 1)) - 0.7) < 1e-12
    assert abs(nk.fitness(inst, (0, 0)) - 0.3) < 1e-12


def test_fitness_rejects_length_mismatch():
    inst = nk.generate(8, 2, "random", seed=1)
    with pytest.raises(ValueError):
        nk.fitness(inst, (0, 1))


def test_fitness_matches_reversed_index_oracle():
    for k in (0, 3, 7):
        inst = nk.generate(8, k, "random", seed=10 + k)
        for x in itertools.product((0, 1), repeat=8):
            assert nk.fitness(inst, x) == oracle_fitness(inst, x)


def test_fitness_bounds():
    inst = nk.generate(8, 4, "random", seed=11)
    vals = nk.all_fitness_values(inst)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0


def test_all_fitness_values_bit_exact():
    for kind in ("adjacent", "random"):
        inst = nk.generate(9, 3, kind, seed=12)
        vals = nk.all_fitness_values(inst)
        for x in itertools.product((0, 1), repeat=9):
            assert vals[nk.pack_bits(x)] == nk.fitness(inst, x)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 10))
    inst = nk.generate(n, draw(st.integers(0, n - 1)),
                       draw(st.sampled_from(nk.KINDS)), draw(st.integers(0, 2**32)))
    return nk.relabel(inst, draw(st.integers(0, (1 << n) - 1)))  # mask 0: the raw instance


@given(instances())
@example(nk.generate(8, 3, "random", seed=2))  # terms expanded over 1 to 4 loci
@example(nk.relabel(nk.generate(9, 4, "random", seed=3), 0b101100111))  # over 1 to 4 loci
@example(nk.generate(12, 2, "adjacent", seed=0))  # over 6 to 8 loci
@example(nk.generate(10, 9, "random", seed=0))  # k = n - 1: every term added as it is
@example(nk.relabel(nk.generate(10, 9, "adjacent", seed=1), 0b1011001110))
@settings(max_examples=60, deadline=None)
def test_all_fitness_values_matches_scalar_fitness(inst):
    vals = nk.all_fitness_values(inst)
    for packed in range(1 << inst.n):
        assert vals[packed] == nk.fitness(inst, nk.unpack_bits(packed, inst.n))


@pytest.mark.parametrize("kind", nk.KINDS)
@pytest.mark.parametrize("k", [0, 4, 15])
def test_all_fitness_values_bytes_match_gather_oracle(k, kind):
    inst = nk.generate(16, k, kind, seed=30 + k)
    for m in (0, 0b1010011100001101):
        relabeled = nk.relabel(inst, m)
        assert nk.all_fitness_values(relabeled).tobytes() == \
            gather_oracle_values(relabeled).tobytes()


@pytest.mark.parametrize("k", [2, 10])
def test_all_fitness_values_bytes_match_gather_oracle_at_n20(k):
    # the benchmark's build shapes: the random links put late loci in most terms
    inst = nk.generate(20, k, "random", seed=40 + k)
    assert nk.all_fitness_values(inst).tobytes() == gather_oracle_values(inst).tobytes()


@pytest.mark.parametrize("kind", nk.KINDS)
@pytest.mark.parametrize("k", [10, 14, 15, 16, 17])
def test_all_fitness_values_holds_at_most_an_eighth_of_a_table_more(k, kind):
    # an expanded term never exceeds 2**(n - 3) values, even when the term
    # already reads most loci; numpy reports its buffers to tracemalloc, and
    # 128 KiB is left for the add's own buffers
    inst = nk.generate(18, k, kind, seed=50 + k)
    tracemalloc.start()
    try:
        nk.all_fitness_values(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 8 << 18
    assert peak <= table_bytes + table_bytes // 8 + (128 << 10)


def test_chunk_values_is_a_slice_of_the_table():
    inst = nk.relabel(nk.generate(10, 3, "random", seed=41), 0b0110010111)
    full = nk.all_fitness_values(inst)
    for lo, hi in [(0, 1), (5, 300), (256, 512), (1000, 1024), (0, 1024)]:
        assert nk._chunk_values(inst, lo, hi).tobytes() == full[lo:hi].tobytes()


def test_exhaustive_optimum_matches_naive_loop():
    inst = nk.generate(10, 4, "random", seed=13)
    best_x, best_f = None, -1.0
    for packed in range(1 << 10):
        f = nk.fitness(inst, nk.unpack_bits(packed, 10))
        if f > best_f:
            best_x, best_f = packed, f
    x, f = nk.exhaustive_optimum(inst)
    assert nk.pack_bits(x) == best_x
    assert f == best_f


def test_exhaustive_optimum_k0_additivity():
    inst = nk.generate(10, 0, "random", seed=14)
    x, _ = nk.exhaustive_optimum(inst)
    for i in range(10):
        assert x[i] == int(np.argmax(inst.tables[i]))


def test_exhaustive_optimum_constant_ties_break_to_zeros():
    inst = make_instance(np.full((6, 2), 0.5))
    x, f = nk.exhaustive_optimum(inst)
    assert x == (0,) * 6
    assert f == 0.5


def test_exhaustive_bound_enforced():
    inst = nk.generate(8, 0, "random", seed=0)
    big = nk.NkInstance(n=25, k=0, kind="random", seed=0,
                        links=np.zeros((25, 0), np.int64), tables=np.zeros((25, 2)))
    with pytest.raises(ValueError):
        nk.all_fitness_values(big)
    with pytest.raises(ValueError):
        nk.exhaustive_optimum(big)
    nk.exhaustive_optimum(inst)


def test_normalize_identity_when_already_optimal():
    tables = np.tile([0.1, 0.9], (6, 1))  # every locus prefers 1
    inst = make_instance(tables)
    assert nk.normalize_to_one(inst) is inst


@pytest.mark.parametrize("n,k,kind", [(8, 2, "random"), (10, 5, "random"), (12, 3, "adjacent")])
def test_normalize_preserves_value_multiset(n, k, kind):
    inst = nk.generate(n, k, kind, seed=n * 100 + k)
    norm = nk.normalize_to_one(inst)
    before = np.sort(nk.all_fitness_values(inst))
    after_vals = nk.all_fitness_values(norm)
    assert np.array_equal(before, np.sort(after_vals))
    assert int(np.argmax(after_vals)) == (1 << n) - 1
    _, opt = nk.exhaustive_optimum(inst)
    assert after_vals[-1] == opt


def test_normalize_records_mask():
    inst = nk.generate(8, 2, "random", seed=21)
    opt, _ = nk.exhaustive_optimum(inst)
    norm = nk.normalize_to_one(inst)
    assert norm.mask == ((1 << 8) - 1) ^ nk.pack_bits(opt)


def test_count_local_optima_matches_double_loop():
    inst = nk.generate(6, 3, "random", seed=22)
    count = 0
    for packed in range(1 << 6):
        x = nk.unpack_bits(packed, 6)
        f = nk.fitness(inst, x)
        fitter = False
        for i in range(6):
            y = list(x)
            y[i] ^= 1
            if nk.fitness(inst, y) >= f:
                fitter = True
                break
        count += not fitter
    assert nk.count_local_optima(inst) == count


def test_count_local_optima_is_strict_on_plateaus():
    assert nk.count_local_optima(make_instance(np.full((6, 2), 0.5))) == 0


def test_k0_has_single_local_optimum():
    for seed in range(5):
        inst = nk.generate(10, 0, "random", seed=seed)
        assert nk.count_local_optima(inst) == 1


def test_k0_reaches_optimum_in_about_half_n_steps():
    # greedy one-bit-flip walks from random starts fix one wrong bit per
    # step, so the expected length is n/2; allow 20 percent slack
    n = 12
    rng = make_rng(23, 0)
    lengths = []
    for seed in range(5):
        inst = nk.generate(n, 0, "random", seed=seed)
        vals = nk.all_fitness_values(inst)
        for _ in range(60):
            x = int(rng.integers(1 << n))
            steps = 0
            while True:
                nb = [x ^ (1 << j) for j in range(n)]
                best = max(nb, key=lambda v: vals[v])
                if vals[best] <= vals[x]:
                    break
                x = best
                steps += 1
            lengths.append(steps)
    assert abs(np.mean(lengths) - n / 2) <= 0.2 * (n / 2)


def test_random_walk_series_and_determinism():
    inst = nk.generate(10, 4, "random", seed=24)
    start = (0, 1) * 5
    s1 = nk.random_walk(inst, start, 50, make_rng(1, 0))
    s2 = nk.random_walk(inst, start, 50, make_rng(1, 0))
    assert len(s1) == 51
    assert np.array_equal(s1, s2)
    assert s1[0] == nk.fitness(inst, start)


def test_theoretical_tau_values():
    assert abs(nk.theoretical_tau(10, 0) - 9.4912) < 1e-4
    assert abs(nk.theoretical_tau(10, 8) - 0.4343) < 1e-4
    taus = [nk.theoretical_tau(10, k) for k in range(9)]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    with pytest.raises(ValueError):
        nk.theoretical_tau(10, 9)  # log argument would be zero


def test_theoretical_rho_values():
    for n, k in [(10, 0), (10, 4), (8, 7)]:
        assert nk.theoretical_rho(n, k, 0) == 1.0
    assert abs(nk.theoretical_rho(10, 4, 1) - 0.5) < 1e-12
    assert abs(nk.theoretical_rho(10, 4, 2) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        nk.theoretical_rho(10, 10, 1)


def test_theoretical_optima_stats():
    mu, sigma = 0.5, math.sqrt(1 / 12)
    for k in range(1, 10):
        mean, var = nk.theoretical_optima_stats(10, k)
        kk = k + 1
        assert mean == mu + sigma * math.sqrt(2 * math.log(kk) / kk)
        assert var == kk * sigma**2 / (10 * (kk + 2 * (k + 2) * math.log(kk)))
        assert mean > mu
    mean0, _ = nk.theoretical_optima_stats(10, 0)
    assert mean0 == mu


def test_expected_optima_count():
    assert abs(nk.expected_optima_count(8) - 256 / 9) < 1e-12


def test_instance_json_round_trip():
    inst = nk.generate(8, 3, "random", seed=77)
    loaded = nk.instance_from_dict(json.loads(json.dumps(nk.instance_to_dict(inst))))
    assert loaded.n == inst.n and loaded.k == inst.k and loaded.kind == inst.kind
    assert loaded.seed == inst.seed and loaded.mask == inst.mask
    assert np.array_equal(loaded.links, inst.links)
    assert np.array_equal(loaded.tables, inst.tables)  # bit-exact: raw float64 bytes
    x = (0, 1, 1, 0, 1, 0, 0, 1)
    assert nk.fitness(loaded, x) == nk.fitness(inst, x)
