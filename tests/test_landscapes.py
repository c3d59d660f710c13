import base64
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from epiroad import landscapes, nk
from epiroad.genotype import BlockParams, block_vector, from_text, random_genotype
from epiroad.genotype import block_bits
from epiroad.landscapes import (
    _ROW,
    _xor_permute,
    er_build,
    is_success,
    landscape_from_dict,
    landscape_to_dict,
    load_landscape,
    open_atomic,
    royal_road,
    save_landscape,
)
from epiroad.seeds import make_rng


def rr(n=4, b=3, lam_max=None):
    return royal_road(BlockParams(n, b, lam_max or 4 * n * b))


def decode_tables(doc) -> np.ndarray:
    """A landscape document's NK tables as an editable (n, 2**(k+1)) array."""
    raw = base64.b64decode(doc["nk"]["tables"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(doc["nk"]["n"], -1).copy()


def encode_tables(doc, tables) -> None:
    doc["nk"]["tables"] = base64.b64encode(np.asarray(tables, "<f8").tobytes()).decode()


def test_rr_reference_optimum_scores_one():
    L = rr()
    g = from_text("AAAGTAGGGTAATTTCCCTCCC", 4)
    assert L.evaluate(g) == 1.0
    assert L.optimum_value == 1.0


def test_rr_empty_and_single_block():
    L = rr()
    assert L.evaluate(()) == 0.0
    assert L.evaluate((0, 0, 0)) == 1 / 4


def test_rr_rejects_overlong_genotype():
    L = royal_road(BlockParams(2, 2, 4))
    with pytest.raises(ValueError):
        L.evaluate((0, 1, 0, 1, 0))


def test_rr_rejects_foreign_letter():
    with pytest.raises(ValueError):
        rr().evaluate((0, 9))


@pytest.mark.parametrize("g", [(-1, -1, -1), (-1, 0, 0, 0), b"\x00\x00\x00\x04"])
def test_rr_rejects_pad_and_foreign_letters_as_value_errors(g):
    # a run of PAD must not reach the table as an index past its end
    with pytest.raises(ValueError, match="outside alphabet"):
        rr().evaluate(g)


def test_rr_table_is_blocks_over_n():
    rng = make_rng(3, 0)
    for n in range(1, 13):
        for b in (1, 2, 3):
            L = royal_road(BlockParams(n, b, 4 * n * b))
            assert np.array_equal(L.bv_fitness, [v.bit_count() / n for v in range(1 << n)])
            for _ in range(50):
                g = random_genotype(4 * n * b, n, rng)
                assert L.evaluate(g) == block_bits(g, n, b).bit_count() / n


def test_rr_rejects_n_beyond_exhaustive_bound():
    with pytest.raises(ValueError, match="exhaustive bound"):
        royal_road(BlockParams(nk.EXHAUSTIVE_BOUND + 1, 1, 100))


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
        assert L.evaluate(g) == nk.fitness(L.nk, bv)


def test_equal_block_vectors_give_identical_fitness():
    L = er_build(8, 2, 3, 100, seed=5)
    # same blocks (letters 0 and 1), different arrangement and junk
    g1 = (0, 0, 0, 1, 1, 1)
    g2 = (2, 1, 1, 1, 5, 0, 0, 0, 0, 7)
    assert block_vector(g1, 8, 3) == block_vector(g2, 8, 3)
    assert L.evaluate(g1) == L.evaluate(g2)


def test_full_block_genotypes_attain_optimum():
    for seed in range(5):
        L = er_build(8, 3, 2, 100, seed=seed)
        g = tuple(s for letter in range(8) for s in [letter] * 2)
        assert L.evaluate(g) == L.optimum_value
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
    assert int(np.argmax(L.bv_fitness)) == (1 << 6) - 1
    # royal road argmax over block vectors is the all-ones vector too
    assert int(np.argmax(royal_road(L.params).bv_fitness)) == (1 << 6) - 1


def test_er_rejects_overlong_genotype():
    L = er_build(4, 1, 2, 8, seed=13)
    with pytest.raises(ValueError):
        L.evaluate((0,) * 9)


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
        assert loaded.evaluate(g) == L.evaluate(g)


def test_landscape_load_rejects_corrupt_optimum():
    L = er_build(6, 2, 2, 100, seed=23)
    doc = landscape_to_dict(L)
    doc["optimum_value"] = 0.123
    with pytest.raises(ValueError):
        landscape_from_dict(doc)


def test_landscape_load_rejects_wrong_format():
    with pytest.raises(ValueError):
        landscape_from_dict({"format": "something-else"})


@pytest.mark.parametrize("row", [[0, 0], [0, 3], [1, 1], [2, 6], [-1, 2], [1, 2.5],
                                 [1.0, 2.0], [True, 2]])
def test_landscape_load_rejects_bad_links(row):
    # locus 0 with k=2: a self-link, a duplicate, a locus outside [0, n), or
    # a float or bool that a cast would turn into a valid row
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=24))
    doc["nk"]["links"][0] = row
    with pytest.raises(ValueError, match="links"):
        landscape_from_dict(doc)


@pytest.mark.parametrize("key", ["params", "nk", "optimum_value"])
def test_landscape_load_names_a_missing_key(key):
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=24))
    del doc[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        landscape_from_dict(doc)


@pytest.mark.parametrize("section, key, value, message", [
    *[("nk", key, None, f"nk is missing key '{key}'")
      for key in ("n", "k", "kind", "seed", "links", "tables")],
    *[("params", key, None, f"missing key 'params.{key}'")
      for key in ("n_letters", "b", "lambda_max")],
    ("nk", None, [6, 2], "nk must be an object, got list"),
    ("nk", None, "nk", "nk must be an object, got str"),
    ("params", None, [6, 2, 100], "params must be an object, got list"),
    ("params", None, "params", "params must be an object, got str"),
])
def test_landscape_load_names_a_missing_nested_key_or_bad_section(section, key, value, message):
    # with a key, that key is deleted from the section; without one, the section is replaced
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=24))
    if key is None:
        doc[section] = value
    else:
        del doc[section][key]
    with pytest.raises(ValueError, match=message):
        landscape_from_dict(doc)


@pytest.mark.parametrize("doc", [[], "landscape", None])
def test_landscape_load_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="not a epiroad-landscape document"):
        landscape_from_dict(doc)


def test_royal_road_landscape_is_not_saved(tmp_path):
    path = tmp_path / "rr.json"
    with pytest.raises(ValueError, match="only Epistatic Road landscapes are saved"):
        save_landscape(rr(), path)
    assert not path.exists()


def test_landscape_load_rejects_non_optimal_all_blocks():
    # raising every locus's all-zeros component leaves the all-ones entry
    # (and the stored optimum) intact but puts the all-zeros vector on top
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=25))
    tables = decode_tables(doc)
    for row in tables:
        row[0] = 0.999
    encode_tables(doc, tables)
    with pytest.raises(ValueError, match="maximum"):
        landscape_from_dict(doc)


@pytest.mark.parametrize("value", [-1.0, 1.0, 100.0, float("nan")])
def test_landscape_load_rejects_table_entry_outside_unit_interval(value):
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=26))
    tables = decode_tables(doc)
    tables[2][3] = value
    encode_tables(doc, tables)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        landscape_from_dict(doc)


def _tables_b64(n_floats: int) -> str:
    return base64.b64encode(np.full(n_floats, 0.5).tobytes()).decode()


@pytest.mark.parametrize("tables", [
    [[0.5] * 8] * 6,  # format 1's nested lists
    None, 7, b"AAAA",
    "not base64!", "AAAA AAAA", "AAAA\nAAAA", "AAA", "\u00e9AAA",
    _tables_b64(6 * 8 - 1), _tables_b64(6 * 8 + 1), "",
])
def test_landscape_load_rejects_malformed_tables(tables):
    # n=6, k=2: exactly 6 * 8 float64 values
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=26))
    assert len(base64.b64decode(doc["nk"]["tables"])) == 8 * 6 * 8
    doc["nk"]["tables"] = tables
    with pytest.raises(ValueError, match="^tables"):
        landscape_from_dict(doc)


def test_landscape_tables_are_little_endian_float64():
    L = er_build(6, 2, 2, 100, seed=26)
    raw = base64.b64decode(landscape_to_dict(L)["nk"]["tables"])
    assert raw == L.nk.tables.astype("<f8").tobytes()


@pytest.mark.parametrize("version", [1, None, "2", 2.0, True, 3, "missing"])
def test_landscape_load_rejects_other_versions(version):
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=26))
    assert doc["version"] == 2
    if version == "missing":
        del doc["version"]
    else:
        doc["version"] = version
    shown = None if version == "missing" else version
    with pytest.raises(ValueError, match=rf"version {shown!r} is not 2; rerun `epiroad gen`"):
        landscape_from_dict(doc)


# sha256 of the file save_landscape writes for er_build(6, 2, 2, 100, seed=30)
# with provenance {"master_seed": 30}; a change to the file format shows here
SAVED_FILE_SHA256 = "d6adbf9a156495962e2f5303ab2c147fe63f805fdd30e47bcbc2acd2b1b1e90f"


def test_saved_landscape_file_is_pinned(tmp_path):
    path = tmp_path / "er.json"
    save_landscape(er_build(6, 2, 2, 100, seed=30), path, provenance={"master_seed": 30})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_FILE_SHA256


class Boom(Exception):
    pass


@pytest.mark.parametrize("previous", [None, b"previous bytes"])
def test_open_atomic_keeps_the_target_when_a_write_fails(tmp_path, previous):
    path = tmp_path / "out.txt"
    if previous is not None:
        path.write_bytes(previous)
    with pytest.raises(Boom):
        with open_atomic(path) as fh:
            fh.write("x" * 100_000)
            fh.flush()  # part of the new content is on disk
            raise Boom
    assert os.listdir(tmp_path) == ([] if previous is None else ["out.txt"])
    if previous is not None:
        assert path.read_bytes() == previous
    with open_atomic(path) as fh:
        fh.write("new")
    assert path.read_text() == "new" and os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("previous", [None, b"previous bytes"])
def test_save_landscape_failure_leaves_no_partial_file(tmp_path, monkeypatch, previous):
    path = tmp_path / "er.json"
    if previous is not None:
        path.write_bytes(previous)

    def failing_replace(src, dst):
        assert os.path.getsize(src) > 0  # the new file was written before the rename
        raise Boom

    monkeypatch.setattr(landscapes.os, "replace", failing_replace)
    with pytest.raises(Boom):
        save_landscape(er_build(6, 2, 2, 100, seed=30), path)
    assert os.listdir(tmp_path) == ([] if previous is None else ["er.json"])
    if previous is not None:
        assert path.read_bytes() == previous


def test_landscape_load_rejects_unsorted_links():
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=27))
    doc["nk"]["links"][0] = doc["nk"]["links"][0][::-1]
    with pytest.raises(ValueError, match="sorted"):
        landscape_from_dict(doc)


@pytest.mark.parametrize("field,value", [
    ("kind", "ring"), ("seed", -1), ("seed", 2.5), ("seed", "7"),
    ("mask", "x"), ("mask", -3), ("mask", 1 << 40), ("mask", 1 << 6), ("mask", True),
    ("n", 6.0), ("n", 0), ("k", True), ("k", 2.0), ("k", 6),
])
def test_landscape_load_rejects_bad_instance_field(field, value):
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=28))
    doc["nk"][field] = value
    with pytest.raises(ValueError, match=rf"^{field} must"):
        landscape_from_dict(doc)


def test_landscape_load_states_the_k_range_as_gen_does(tmp_path):
    path = tmp_path / "er.json"
    save_landscape(er_build(8, 2, 2, 100, seed=28), path)
    doc = json.loads(path.read_text())
    doc["nk"]["k"] = 8
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as built:
        er_build(8, 8, 2, 100, seed=28)
    with pytest.raises(ValueError, match=r"^k must lie in \[0, 7\], got 8$") as loaded:
        load_landscape(path)
    assert str(loaded.value) == str(built.value)


@pytest.mark.parametrize("seed", [2.5, True, -1])
def test_er_build_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # read as int(2.5), it would build seed 2's table and record 2.5, a seed no file can hold
    with pytest.raises(ValueError, match="seed path entries must be non-negative integers"):
        er_build(6, 2, 2, 30, seed=seed)


def test_a_numpy_integer_seed_opens_the_same_stream():
    assert make_rng(np.int64(3), 1).random() == make_rng(3, 1).random()
    assert np.array_equal(er_build(6, 2, 2, 30, seed=np.uint64(2)).bv_fitness,
                          er_build(6, 2, 2, 30, seed=2).bv_fitness)


@pytest.mark.parametrize("seed", [np.int64(2), np.uint64(2)])
def test_a_numpy_integer_seed_saves_the_file_of_its_int(tmp_path, seed):
    save_landscape(er_build(6, 2, 2, 30, seed=seed), tmp_path / "numpy.json")
    save_landscape(er_build(6, 2, 2, 30, seed=2), tmp_path / "int.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()


@pytest.mark.parametrize("field,value", [
    ("n_letters", 6.0), ("b", 2.5), ("b", True), ("lambda_max", 100.0), ("lambda_max", "100"),
])
def test_landscape_load_rejects_bad_param_field(field, value):
    # BlockParams would accept 2.5 or 6.0; the file must hold plain ints
    doc = landscape_to_dict(er_build(6, 2, 2, 100, seed=28))
    doc["params"][field] = value
    with pytest.raises(ValueError, match=rf"^params\.{field} must"):
        landscape_from_dict(doc)


# sha256 of er_build(n, k, b, 100, seed).bv_fitness; every bit of a table is
# part of the seed -> bytes contract
GOLDEN_TABLE_SHA = {
    (12, 6, 2, 201): "cc6bf4fa5cce1af2a9df187f979d17cc25b28698c2151d462e46a80f5c2b623e",
    (16, 8, 3, 202): "a7877cf642c0a8369c0d0ad67d652832d1c5228ba5d2246afa425bf3cb7cfd16",
}


@pytest.mark.parametrize("cell", list(GOLDEN_TABLE_SHA))
def test_er_build_table_is_bit_identical_to_golden(cell):
    n, k, b, seed = cell
    L = er_build(n, k, b, 100, seed=seed)
    assert hashlib.sha256(np.ascontiguousarray(L.bv_fitness)).hexdigest() == \
        GOLDEN_TABLE_SHA[cell]


@pytest.mark.parametrize("n", [1, 5, 12, 13, 16, 17, 18])
def test_xor_permute_matches_gather(n):
    vals = make_rng(29, n).random(1 << n)
    m = 0x2b5a5 % (1 << n)
    # row and column bits; column bits only (m_hi == 0); row bits only (m_lo == 0)
    for mask in (m, m % _ROW, m - m % _ROW):
        out = vals.copy()
        _xor_permute(out, mask)
        assert out.tobytes() == vals[np.arange(1 << n) ^ mask].tobytes()


def test_er_build_matches_normalize_then_tabulate():
    # at n = 1, 2 and 3 some of the seeds leave the raw optimum at all-ones (mask 0)
    for n, k in [(1, 0), (2, 1), (3, 0), (8, 2), (8, 7), (12, 6), (16, 0)]:
        for seed in range(4):
            L = er_build(n, k, 2, 100, seed=seed)
            ref = nk.normalize_to_one(nk.generate(n, k, "random", seed=seed))
            assert L.nk.mask == ref.mask
            assert np.array_equal(L.nk.tables, ref.tables)
            assert np.array_equal(L.bv_fitness, nk.all_fitness_values(ref))
            assert L.optimum_value == float(L.bv_fitness[-1])
