import itertools
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiroad.genotype import (
    LANE_LETTERS,
    PAD,
    BlockParams,
    block_bits,
    block_bits_batch,
    block_count,
    block_ends,
    block_vector,
    edit_distance,
    enumerate_neighbors,
    from_text,
    has_block,
    neighbor_count,
    neighbor_matrix,
    random_genotype,
    random_neighbor,
    row_to_genotype,
    to_text,
)
from epiroad.seeds import make_rng

genotypes = st.lists(st.integers(0, 3), max_size=12).map(tuple)


def scalar_block_bits(g, n_letters, b):
    """block_bits as one pass over the letters: a letter's bit is set when its run reaches b."""
    bits = 0
    prev = None
    run = 0
    for s in g:
        if s != prev:
            if not 0 <= s < n_letters:
                raise ValueError(f"letter {s} outside alphabet of size {n_letters}")
            prev = s
            run = 1
        else:
            run += 1
        if run == b:
            bits |= 1 << (n_letters - 1 - s)
    return bits


def test_has_block_reference_optimum():
    g = from_text("AAAGTAGGGTAATTTCCCTCCC", 4)
    assert all(has_block(g, letter, 3) for letter in range(4))
    assert block_vector(g, 4, 3) == (1, 1, 1, 1)
    assert block_count(g, 4, 3) == 4


def test_has_block_needs_contiguous_run():
    g = from_text("AATAA", 4)
    assert not has_block(g, 0, 3)
    assert has_block(g, 0, 2)
    assert not has_block((), 0, 1)


def test_block_vector_trivial_cases():
    assert block_vector((), 4, 1) == (0, 0, 0, 0)
    assert block_vector((0, 0, 0, 0), 4, 3) == (1, 0, 0, 0)


@given(genotypes, st.integers(0, 3), st.integers(1, 5))
def test_block_monotone_in_b(g, letter, b):
    if has_block(g, letter, b + 1):
        assert has_block(g, letter, b)


@pytest.mark.parametrize("n_letters", [2, 4, 8, 16])
def test_neighbor_count_formula(n_letters):
    rng = make_rng(7, n_letters)
    for lam in range(21):
        g = tuple(int(s) for s in rng.integers(0, n_letters, size=lam))
        expected = neighbor_count(lam, n_letters)
        assert len(enumerate_neighbors(g, n_letters)) == expected
        assert neighbor_matrix(g, n_letters).shape[0] == expected


def test_neighbors_lambda_zero():
    assert enumerate_neighbors((), 4) == [(0,), (1,), (2,), (3,)]


@given(genotypes)
@settings(max_examples=60)
def test_neighbors_at_edit_distance_one(g):
    for h in enumerate_neighbors(g, 4):
        assert edit_distance(g, h) <= 1


@given(genotypes)
@settings(max_examples=60)
def test_neighbor_matrix_matches_enumeration(g):
    mat = neighbor_matrix(g, 4)
    assert Counter(row_to_genotype(r) for r in mat) == Counter(enumerate_neighbors(g, 4))


def test_neighbor_matrix_respects_cap():
    g = (0, 1, 2)
    mat = neighbor_matrix(g, 4, lambda_max=3)
    assert mat.shape[0] == 3 * (4 - 1) + 3  # substitutions + deletions only
    assert all(len(row_to_genotype(r)) <= 3 for r in mat)


def test_random_neighbor_stays_in_multiset():
    rng = make_rng(3, 1)
    g = (0, 1, 1, 2)
    pool = Counter(enumerate_neighbors(g, 4))
    for _ in range(300):
        assert random_neighbor(g, 4, rng) in pool


def test_random_neighbor_respects_cap():
    rng = make_rng(3, 2)
    g = (0, 1, 2, 3)
    for _ in range(300):
        assert len(random_neighbor(g, 4, rng, lambda_max=4)) <= 4


@given(st.lists(st.integers(0, 2), max_size=8), st.lists(st.integers(0, 2), max_size=8))
@settings(max_examples=80)
def test_edit_distance_against_recursive_oracle(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def lev(x, y):
        if not x:
            return len(y)
        if not y:
            return len(x)
        return min(
            lev(x[1:], y) + 1,
            lev(x, y[1:]) + 1,
            lev(x[1:], y[1:]) + (x[0] != y[0]),
        )

    assert edit_distance(a, b) == lev(a, b)
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)


@given(genotypes, genotypes, genotypes)
@settings(max_examples=40)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_random_genotype_max_len_zero():
    rng = make_rng(0, 0)
    assert all(random_genotype(0, 4, rng) == () for _ in range(50))


def test_random_genotype_length_and_symbol_distribution():
    rng = make_rng(1, 0)
    draws = 100_000
    max_len = 10
    n_letters = 4
    lengths = np.empty(draws)
    counts = np.zeros(n_letters)
    for i in range(draws):
        g = random_genotype(max_len, n_letters, rng)
        lengths[i] = len(g)
        for s in g:
            counts[s] += 1
    # length uniform on {0..max_len}: mean max_len/2, var ((max_len+1)^2 - 1)/12
    se = np.sqrt(((max_len + 1) ** 2 - 1) / 12 / draws)
    assert abs(lengths.mean() - max_len / 2) < 3 * se
    total = counts.sum()
    p = 1 / n_letters
    se_sym = np.sqrt(p * (1 - p) * total)
    for c in counts:
        assert abs(c - total * p) < 3 * se_sym


segments = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=2, max_size=6
).filter(lambda segs: all(x[0] != y[0] for x, y in zip(segs, segs[1:])))


@given(segments, st.data())
@settings(max_examples=80)
def test_block_translocation_invariance(segs, data):
    # move a complete block to another inter-run boundary; when the removal
    # site's flanks differ the block vector must be exactly unchanged
    b = 2
    blocks = [i for i, (_, ln) in enumerate(segs) if ln >= b]
    if not blocks:
        return
    i = data.draw(st.sampled_from(blocks))
    left = segs[i - 1][0] if i > 0 else None
    right = segs[i + 1][0] if i + 1 < len(segs) else None
    if left is not None and right is not None and left == right:
        return  # removal would merge flanking runs; superset only
    rest = segs[:i] + segs[i + 1 :]
    j = data.draw(st.integers(0, len(rest)))
    moved = rest[:j] + [segs[i]] + rest[j:]

    def flatten(ss):
        return tuple(s for letter, ln in ss for s in [letter] * ln)

    assert block_vector(flatten(segs), 4, b) == block_vector(flatten(moved), 4, b)


@given(st.lists(st.integers(0, 3), max_size=20).map(tuple))
@settings(max_examples=60)
def test_block_bits_batch_matches_scalar(g):
    mat = neighbor_matrix(g, 4)
    batch = block_bits_batch(mat, 4, 2)
    for i in range(mat.shape[0]):
        assert int(batch[i]) == scalar_block_bits(row_to_genotype(mat[i]), 4, 2)


@st.composite
def padded_matrices(draw):
    """(rows, n_letters, b): genotypes of runs of 1 to 9 letters, PAD on their right."""
    n = draw(st.integers(1, 24))
    b = draw(st.integers(1, 7))
    width = draw(st.integers(0, b + 3) | st.integers(0, 40) | st.just(130))
    rows = np.full((draw(st.integers(0, 6)), width), PAD, np.int16)
    for row in rows:
        runs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 9)),
                             max_size=width))
        g = [s for s, length in runs for _ in range(length)][: draw(st.integers(0, width))]
        row[: len(g)] = g
    return rows, n, b


def _padded(genotypes, width):
    rows = np.full((len(genotypes), width), PAD, np.int16)
    for row, g in zip(rows, genotypes):
        row[: len(g)] = g
    return rows


@given(padded_matrices())
@settings(max_examples=300, deadline=None)
@example((_padded([(0, 0)], 2), 4, 3))  # b above the width
@example((_padded([(1, 1, 1), (1, 1)], 3), 4, 3))  # blocks ending at the last column
@example((_padded([(0, 1), (1,)], 2), 2, 1))  # the same at b = 1
@example((_padded([(2, 2), (2,), (), (2, 2, 2)], 8), 3, 2))  # runs of PAD, an all-PAD row
@example((_padded([(0, 1, 1)], 6), 2, 4))  # PAD does not extend a run
@example((_padded([], 5), 4, 2))  # no rows
@example((_padded([(23,) * 130, (0,) * 130, tuple(range(24)) * 5], 130), 24, 7))
@example((_padded([(5,) * 130], 130), 24, 1))
def test_block_bits_batch_matches_scalar_oracle(case):
    rows, n, b = case
    batch = block_bits_batch(rows, n, b)
    assert batch.dtype == np.int64 and batch.shape == (len(rows),)
    for row, bits in zip(rows, batch):
        assert int(bits) == scalar_block_bits(row_to_genotype(row), n, b)


@st.composite
def block_cases(draw):
    """(genotype, n_letters, b): runs of 1 to 9 letters, as a tuple, a list or bytes."""
    n = draw(st.integers(1, 24))
    b = draw(st.integers(1, 7))
    letters = st.integers(0, n - 1) | st.just(min(10, n - 1))  # 10 is b"\n"
    runs = draw(st.lists(st.tuples(letters, st.integers(1, 9)), max_size=40))
    g = [s for s, length in runs for _ in range(length)][: draw(st.integers(0, 130))]
    return draw(st.sampled_from([tuple, list, bytes]))(g), n, b


@given(block_cases())
@settings(max_examples=400)
@example(((), 1, 1))
@example((b"\n\n\n", 11, 3))  # one run spanning the whole genotype
@example((b"\n\n\n\x00\x01", 11, 3))  # a block at the start
@example(((0, 1, 10, 10, 10), 11, 3))  # a block at the end
@example(((10, 10, 0, 10, 10), 11, 3))  # runs of b - 1 at both ends
@example(([23] * 130, 24, 7))
@example((bytes(130), 24, 7))
def test_block_bits_matches_scalar_oracle(case):
    g, n, b = case
    assert block_bits(g, n, b) == scalar_block_bits(tuple(g), n, b)


@given(block_cases().map(lambda case: (bytes(case[0]), *case[1:])))
@settings(max_examples=400)
@example((b"", 1, 1))
@example((b"", 24, 7))
@example((b"\x02\x02", 4, 3))  # b above the length
@example((b"\x05" * 6, 6, 7))
@example((b"\x01\x01\x01\x00\x01\x01\x01", 2, 3))  # one letter ending two blocks
@example((bytes([23] * 130), 24, 7))
@example((bytes(range(24)) * 5, 24, 1))
def test_block_ends_matches_has_block_oracle(case):
    g, n, b = case
    ends = block_ends(g, b)
    bits = 0
    for c in set(ends):
        bits |= 1 << (n - 1 - c)
    assert bits == sum(1 << (n - 1 - s) for s in range(n) if has_block(g, s, b))


def test_block_bits_reads_numpy_rows_by_letter():
    row = np.array([2, 2, 2, 0], np.int16)  # its buffer holds 2 bytes per letter
    assert block_bits(row, 4, 3) == scalar_block_bits((2, 2, 2, 0), 4, 3) == 0b0010


def test_block_bits_at_the_lane_limit():
    n = LANE_LETTERS
    assert block_bits(bytes([0, 127, 127, 127, 0]), n, 3) == 1
    assert block_bits(bytes([127, 0, 0, 0, 127]), n, 3) == 1 << (n - 1)
    with pytest.raises(ValueError, match="exceeds"):
        block_bits((0, 0), n + 1, 1)
    with pytest.raises(ValueError, match="exceeds"):
        block_bits(b"", 200, 1)


@pytest.mark.parametrize("g", [(), (0, 0), b"\x01"])
def test_block_bits_rejects_block_size_below_one(g):
    with pytest.raises(ValueError, match="block size"):
        block_bits(g, 4, 0)


def test_block_bits_rejects_foreign_letters():
    with pytest.raises(ValueError):
        block_bits((0, 7), 4, 1)
    with pytest.raises(ValueError, match="letter 4 outside"):
        block_bits(bytes([0, 4, 9]), 4, 2)
    with pytest.raises(ValueError, match="letter 300 outside"):
        block_bits([1, 300], 4, 3)


@pytest.mark.parametrize("g", [(-1, 2), (PAD,), (PAD, PAD, PAD), (0, PAD, 0), (1, 1, PAD)])
def test_block_bits_rejects_pad(g):
    # PAD is checked wherever it sits, also first: (-1, 2) must not read as
    # bit 4 of a 4-letter alphabet
    with pytest.raises(ValueError, match="letter -1 outside"):
        block_bits(g, 4, 1)


def test_text_round_trip_small_alphabet():
    g = (0, 1, 2, 3, 0)
    assert to_text(g, 4) == "ATGCA"
    assert from_text("ATGCA", 4) == g
    assert from_text("", 4) == ()


def test_text_round_trip_large_alphabet():
    g = (0, 27, 5)
    text = to_text(g, 30)
    assert text == "0,27,5"
    assert from_text(text, 30) == g
    assert from_text("", 30) == ()


def test_from_text_rejects_unknown_letters():
    with pytest.raises(ValueError):
        from_text("AXZ", 4)  # X outside a 4-letter alphabet


def test_block_params_validation():
    BlockParams(n_letters=4, b=2, lambda_max=8)
    with pytest.raises(ValueError):
        BlockParams(n_letters=4, b=2, lambda_max=7)
    with pytest.raises(ValueError):
        BlockParams(n_letters=4, b=0, lambda_max=8)
    with pytest.raises(ValueError):
        BlockParams(n_letters=0, b=1, lambda_max=8)


def test_pad_never_collides_with_letters():
    mat = neighbor_matrix((0, 1), 4)
    assert PAD not in range(4)
    assert set(np.unique(mat)) <= set(range(4)) | {PAD}
