import itertools

import numpy as np
import pytest

from epiroad import nk
from epiroad.genotype import BlockParams, block_vector, from_text, random_genotype
from epiroad.landscapes import (
    ErLandscape,
    RoyalRoadLandscape,
    er_build,
    er_fitness,
    is_success,
    landscape_from_dict,
    landscape_to_dict,
    load_landscape,
    rr_fitness,
    save_landscape,
)
from epiroad.seeds import make_rng


def rr(n=4, b=3, lam_max=None):
    return RoyalRoadLandscape(BlockParams(n, b, lam_max or 4 * n * b))


def test_rr_reference_optimum_scores_one():
    L = rr()
    g = from_text("AAAGTAGGGTAATTTCCCTCCC", 4)
    assert rr_fitness(L, g) == 1.0


def test_rr_empty_and_single_block():
    L = rr()
    assert rr_fitness(L, ()) == 0.0
    assert rr_fitness(L, (0, 0, 0)) == 1 / 4


def test_rr_rejects_overlong_genotype():
    L = RoyalRoadLandscape(BlockParams(2, 2, 4))
    with pytest.raises(ValueError):
        rr_fitness(L, (0, 1, 0, 1, 0))


def test_rr_rejects_foreign_letter():
    with pytest.raises(ValueError):
        rr_fitness(rr(), (0, 9))


def test_er_build_k0_has_no_links():
    L = er_build(8, 0, 2, 100, seed=1)
    assert L.nk.links.shape == (8, 0)
    assert L.nk.kind == "random"


def test_er_build_distinct_across_seeds():
    tables = [er_build(8, 2, 2, 100, seed=s).nk.tables for s in range(10)]
    for a, c in itertools.combinations(tables, 2):
        assert not np.array_equal(a, c)


def test_er_build_deterministic():
    a = er_build(8, 3, 2, 100, seed=9)
    c = er_build(8, 3, 2, 100, seed=9)
    assert np.array_equal(a.nk.tables, c.nk.tables)
    assert a.optimum_value == c.optimum_value


def test_er_fitness_factors_through_block_vector():
    L = er_build(8, 4, 2, 100, seed=3)
    rng = make_rng(4, 0)
    for _ in range(200):
        g = random_genotype(60, 8, rng)
        bv = block_vector(g, 8, 2)
        assert er_fitness(L, g) == nk.fitness(L.nk, bv)


def test_equal_block_vectors_give_identical_fitness():
    L = er_build(8, 2, 3, 100, seed=5)
    # same blocks (letters 0 and 1), different arrangement and junk
    g1 = (0, 0, 0, 1, 1, 1)
    g2 = (2, 1, 1, 1, 5, 0, 0, 0, 0, 7)
    assert block_vector(g1, 8, 3) == block_vector(g2, 8, 3)
    assert er_fitness(L, g1) == er_fitness(L, g2)


def test_full_block_genotypes_attain_optimum():
    for seed in range(5):
        L = er_build(8, 3, 2, 100, seed=seed)
        g = tuple(s for letter in range(8) for s in [letter] * 2)
        assert er_fitness(L, g) == L.optimum_value
        assert int(np.argmax(L.bv_fitness)) == (1 << 8) - 1


def test_er_k0_block_addition_strictly_improves():
    L = er_build(8, 0, 2, 100, seed=11)
    for v in range(1 << 8):
        f_v = nk.fitness(L.nk, nk.unpack_bits(v, 8))
        for j in range(8):
            if not v & (1 << j):
                f_up = nk.fitness(L.nk, nk.unpack_bits(v | (1 << j), 8))
                assert f_up > f_v


def test_rr_and_er_k0_share_argmax_set():
    L = er_build(6, 0, 2, 100, seed=12)
    vals = L.bv_fitness
    assert int(np.argmax(vals)) == (1 << 6) - 1
    # royal road argmax over block vectors is the all-ones vector too
    counts = [int(v).bit_count() for v in range(1 << 6)]
    assert counts.index(max(counts)) == (1 << 6) - 1


def test_er_rejects_overlong_genotype():
    L = er_build(4, 1, 2, 8, seed=13)
    with pytest.raises(ValueError):
        er_fitness(L, (0,) * 9)


def test_is_success_tolerance():
    L = er_build(8, 2, 2, 100, seed=14)
    assert is_success(L, L.optimum_value)
    assert is_success(L, L.optimum_value - 1e-13)
    assert not is_success(L, L.optimum_value - 1e-6)


def test_block_params_validated_at_build():
    with pytest.raises(ValueError):
        er_build(8, 2, 2, 15, seed=0)  # lambda_max below n * b


def test_landscape_round_trip(tmp_path):
    L = er_build(8, 4, 3, 100, seed=21)
    path = tmp_path / "er.json"
    save_landscape(L, path, provenance={"master_seed": 21})
    loaded = load_landscape(path)
    assert loaded.params == L.params
    assert loaded.optimum_value == L.optimum_value
    assert np.array_equal(loaded.bv_fitness, L.bv_fitness)
    rng = make_rng(22, 0)
    for _ in range(100):
        g = random_genotype(80, 8, rng)
        assert er_fitness(loaded, g) == er_fitness(L, g)


def test_landscape_load_rejects_corrupt_optimum():
    L = er_build(6, 2, 2, 100, seed=23)
    doc = landscape_to_dict(L)
    doc["optimum_value"] = 0.123
    with pytest.raises(ValueError):
        landscape_from_dict(doc)


def test_landscape_load_rejects_wrong_format():
    with pytest.raises(ValueError):
        landscape_from_dict({"format": "something-else"})


@pytest.mark.parametrize("row", [[0, 0], [0, 3], [1, 1], [2, 6], [-1, 2]])
def test_landscape_load_rejects_bad_links(row):
    # locus 0 with k=2: a self-link, a duplicate or a locus outside [0, n)
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=24))
    doc["nk"]["links"][0] = row
    with pytest.raises(ValueError, match="links"):
        landscape_from_dict(doc)


def test_landscape_load_rejects_non_optimal_all_blocks():
    # raising a component of the all-zeros pattern leaves the all-ones entry
    # (and the stored optimum) intact but puts another vector on top
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=25))
    doc["nk"]["tables"][0][0] = 100.0
    with pytest.raises(ValueError, match="maximum"):
        landscape_from_dict(doc)
