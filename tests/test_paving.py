"""Tests for the 2-paving analyzer: exact Gram projections, weight
profiles, and the deterministic partition search."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from exactframes import _kernel, cli, paving
from exactframes._kernel import dot_terms, scale_terms
from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError, ResourceLimitError)
from exactframes.io import serialize
from exactframes.matrices import ExactMatrix, block_diag
from exactframes.paving import (EXHAUSTIVE_LIMIT, SAMPLE_LIMIT,
                                gram_projection, paving_epsilon,
                                scaled_gram, weight_profile)
from exactframes.radicals import RadicalScalar, make, sqrt_rational
from exactframes.two_tight import ap_two_tight, make_two_row_table, \
    weight_in_front
from exactframes.unitary import constant_first_row
from paving_reference import (assert_same_result, reference_paving,
                              reflected)


def test_gram_projection_of_two_tight_frame():
    g = gram_projection(ap_two_tight(1, 2), 2)
    assert g.shape == (8, 8)
    assert g.is_symmetric()
    assert g @ g == g
    half = RadicalScalar(Fraction(1, 2))
    for i in range(8):
        assert g.entry(i, i) == half


def test_gram_projection_of_identity():
    eye = ExactMatrix.identity(4)
    assert gram_projection(eye, 1) == eye


def test_gram_projection_rejects_non_tight_input():
    with pytest.raises(PreconditionError, match="not a tight frame"):
        gram_projection(ExactMatrix([[1, 2], [3, 4]]), 2)


def test_gram_projection_rejects_wrong_constant():
    with pytest.raises(PreconditionError, match="2-tight, not 3-tight"):
        gram_projection(ap_two_tight(1, 2), 3)


@pytest.mark.parametrize("frame, k", [
    (ap_two_tight(1, 2), 2),
    (ap_two_tight(Fraction(1, 3), Fraction(5, 2)), 2),
    (weight_in_front(make_two_row_table((7, 5, 3, 1), 8)), 2),
    (constant_first_row(5), 1),
    (constant_first_row(6), Fraction(-3, 7)),
])
def test_scaled_gram_matches_the_full_product(frame, k):
    full = frame.matmul(frame.transpose()).scale(Fraction(1, k))
    assert scaled_gram(frame, k) == full
    if k > 0:
        assert gram_projection(frame, k) == full


def _reference_scaled_gram(a, k):
    """``A A^T / k`` one dot product per entry on or above the
    diagonal: the oracle for the graded Gram."""
    inv = 1 / Fraction(k)
    out = [[()] * a.rows for _ in range(a.rows)]
    for i, row in enumerate(a._data):
        for j in range(i, a.rows):
            out[i][j] = out[j][i] = scale_terms(
                dot_terms(row, a._data[j]), inv.numerator, inv.denominator)
    return ExactMatrix._raw(a.rows, a.rows, tuple(map(tuple, out)))


# squarefree radicands with shared primes: several pairs of radicands
# fold onto each core
_POOL = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 42)


def _random_frame(rng, top):
    def scalar():
        value = RadicalScalar(0)
        for _ in range(rng.randint(1, 3)):
            num = rng.choice((-1, 1)) * rng.randint(1, top)
            value = value + make(Fraction(num, rng.randint(1, 6)),
                                 rng.choice(_POOL))
        return value
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    return ExactMatrix([[scalar() if rng.random() < 0.7 else 0
                         for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("seed", range(8))
def test_scaled_gram_matches_reference_on_random_matrices(seed, gram_path):
    rng = random.Random(seed)
    for _ in range(10):
        a = _random_frame(rng, rng.choice((5, 10 ** 30)))
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 9))
        assert scaled_gram(a, k) == _reference_scaled_gram(a, k)


@pytest.mark.parametrize("frame", [
    weight_in_front(make_two_row_table(range(1, 9), 9)),
    weight_in_front(make_two_row_table((7, 5, 3, 1) * 2, 8)).scale(10 ** 12),
    constant_first_row(24),
], ids=["wif_32x16", "wif_32x16_big", "cfr_24"])
def test_scaled_gram_matches_reference_on_frames(frame):
    # the graded path, not the pair scan used below its size cut
    assert not _kernel._small(frame._data)
    for k in (2, Fraction(-3, 7)):
        assert scaled_gram(frame, k) == _reference_scaled_gram(frame, k)


def test_weight_profile_exact_column_sums():
    assert weight_profile(ExactMatrix([[1, 2], [3, 4]])) == (10, 20)
    frame = ap_two_tight(1, 2)
    assert weight_profile(frame) == (2, 2, 2, 2)
    raw = weight_in_front(make_two_row_table((15, 13, 11, 9), 16)).scale(8)
    assert weight_profile(raw) == (128,) * 8


def test_weight_profile_rejects_irrational_sums():
    m = ExactMatrix([[1 + sqrt_rational(2)]])
    with pytest.raises(DomainError):
        weight_profile(m)


def test_paving_regression_eight_by_eight():
    g = gram_projection(ap_two_tight(1, 2), 2)
    result = paving_epsilon(g)
    assert result.matrix_id == "8x8-9e0183567946"
    assert result.matrix_size == 8
    assert result.best_partition == ((0, 3, 5, 6), (1, 2, 4, 7))
    assert result.best_value == pytest.approx(0.0, abs=1e-9)
    assert result.partitions_examined == 128
    assert result.exhaustive
    hist = result.per_size_histogram
    assert sorted(hist) == [0, 1, 2, 3, 4]
    assert hist[0] == pytest.approx(1.0, abs=1e-9)
    assert hist[1] == pytest.approx(1.0, abs=1e-9)
    assert hist[4] == pytest.approx(0.0, abs=1e-9)


def test_paving_json_shape():
    g = gram_projection(ap_two_tight(1, 2), 2)
    d = paving_epsilon(g).to_json_dict()
    assert sorted(d) == ["best_partition", "best_value", "exhaustive",
                         "matrix_id", "matrix_size", "partitions_examined",
                         "per_size_histogram"]
    assert d["best_partition"] == [[0, 3, 5, 6], [1, 2, 4, 7]]
    assert sorted(d["per_size_histogram"]) == ["0", "1", "2", "3", "4"]


def test_paving_of_half_identity_is_trivial():
    half = Fraction(1, 2)
    g = ExactMatrix([[half if i == j else 0 for j in range(6)]
                     for i in range(6)])
    result = paving_epsilon(g)
    assert result.best_value == 0.0
    assert result.best_partition == ((0,), (1, 2, 3, 4, 5))
    assert result.partitions_examined == 32


def test_paving_of_rank_one_projection():
    half = Fraction(1, 2)
    g = ExactMatrix([[half, half], [half, half]])
    result = paving_epsilon(g)
    assert result.best_partition == ((0,), (1,))
    assert result.best_value == 0.0
    assert result.per_size_histogram[0] == pytest.approx(1.0)
    assert result.partitions_examined == 2


def test_paving_rejects_non_square_and_asymmetric():
    with pytest.raises(DimensionError):
        paving_epsilon(ExactMatrix([[1, 2]]))
    with pytest.raises(PreconditionError, match="symmetric"):
        paving_epsilon(ExactMatrix([[1, 2], [3, 4]]))


def test_paving_large_matrix_needs_sampling():
    m = EXHAUSTIVE_LIMIT + 2
    half = Fraction(1, 2)
    g = ExactMatrix([[half if i == j else 0 for j in range(m)]
                     for i in range(m)])
    with pytest.raises(ResourceLimitError, match="pass sample="):
        paving_epsilon(g)


def test_paving_sampling_is_seeded_and_reproducible():
    rng = random.Random(6011)
    m = EXHAUSTIVE_LIMIT + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            rows[i][j] = v
            rows[j][i] = v
    g = ExactMatrix(rows)
    first = paving_epsilon(g, sample=40, seed=7)
    second = paving_epsilon(g, sample=40, seed=7)
    assert first == second
    assert not first.exhaustive
    assert first.partitions_examined == 40
    shifted = paving_epsilon(g, sample=40, seed=8)
    assert shifted.partitions_examined == 40


@pytest.mark.parametrize("m", (66, 128))
def test_paving_sampling_past_64_bit_masks(m):
    half = Fraction(1, 2)
    g = ExactMatrix([[half if i == j else 0 for j in range(m)]
                     for i in range(m)])
    result = paving_epsilon(g, sample=50, seed=3)
    assert result == paving_epsilon(g, sample=50, seed=3)
    assert result.partitions_examined == 50 and not result.exhaustive
    first, second = result.best_partition
    assert first[0] == 0 and sorted(first + second) == list(range(m))
    # uniform masks put about half the rows in each block; masks cut to
    # their low 64 bits would put at most 65 of 128 rows in the first
    assert max(result.per_size_histogram) > m // 2 - 14


def test_paving_rejects_entries_beyond_float_range():
    g = ExactMatrix([[10 ** 400, 0], [0, 1]])
    with pytest.raises(DomainError, match="overflows a float64"):
        paving_epsilon(g)


def test_paving_rejects_samples_past_the_exhaustive_budget():
    g = gram_projection(ap_two_tight(1, 2), 2)
    assert SAMPLE_LIMIT == 2 ** (EXHAUSTIVE_LIMIT - 1)
    assert paving_epsilon(g, sample=3).partitions_examined == 3
    with pytest.raises(ResourceLimitError, match=str(SAMPLE_LIMIT)):
        paving_epsilon(g, sample=SAMPLE_LIMIT + 1)
    with pytest.raises(ResourceLimitError, match="cap"):
        paving_epsilon(g, sample=100_000_000_000)


def test_paving_rejects_bad_sample_counts():
    g = ExactMatrix.identity(4)
    with pytest.raises(DomainError, match="sample"):
        paving_epsilon(g, sample=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"sample": True}, "sample"),
    ({"sample": 2.5}, "sample"),
    ({"sample": "3"}, "sample"),
    ({"sample": 3, "seed": 2.5}, "seed"),
    ({"sample": 3, "seed": False}, "seed"),
    ({"sample": np.True_}, "sample"),
])
def test_paving_refuses_arguments_that_are_not_integers(kwargs, name):
    g = gram_projection(ap_two_tight(1, 2), 2)
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        paving_epsilon(g, **kwargs)


def test_paving_takes_numpy_integers():
    g = gram_projection(ap_two_tight(1, 2), 2)
    got = paving_epsilon(g, sample=np.int64(5), seed=np.uint8(3))
    assert got == paving_epsilon(g, sample=5, seed=3)
    assert type(got.partitions_examined) is int


def test_paving_rejects_negative_seeds_only_when_sampling():
    g = gram_projection(ap_two_tight(1, 2), 2)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        paving_epsilon(g, sample=3, seed=-1)
    # the exhaustive search draws nothing, so it ignores the seed
    assert paving_epsilon(g, seed=-1) == paving_epsilon(g)


def test_paving_result_matrix_ids_distinguish_inputs():
    a = paving_epsilon(gram_projection(ap_two_tight(1, 2), 2))
    b = paving_epsilon(gram_projection(ap_two_tight(1, 4), 2))
    assert a.matrix_id != b.matrix_id
    assert a.matrix_id.startswith("8x8-")
    assert len(a.matrix_id.split("-")[1]) == 12


def _half_identity(m):
    half = Fraction(1, 2)
    return ExactMatrix([[half if i == j else 0 for j in range(m)]
                        for i in range(m)])


def _random_symmetric(m, rng, values):
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = Fraction(rng.choice(values), rng.randrange(1, 4))
            rows[i][j] = rows[j][i] = v
    return ExactMatrix(rows)


@pytest.mark.parametrize("m", range(1, 11))
def test_batched_search_matches_reference_exhaustive(m):
    rng = random.Random(400 + m)
    for values in (range(-3, 4), (0, 0, 0, 1, -1)):
        g = _random_symmetric(m, rng, values)
        assert_same_result(paving_epsilon(g), reference_paving(g))


@pytest.mark.parametrize("m", (30, 66, 130))
def test_batched_search_matches_reference_sampled(m):
    g = _random_symmetric(m, random.Random(m), range(-3, 4))
    for seed in (0, 11):
        assert_same_result(paving_epsilon(g, sample=40, seed=seed),
                           reference_paving(g, sample=40, seed=seed))


_TIE_CASES = pytest.mark.parametrize("g, sample", [
    (gram_projection(ap_two_tight(1, 2), 2), None),
    (_half_identity(6), None),
    # 512 partitions, every one of value 0: ties across chunks
    (_half_identity(10), None),
    # every value 0 in random order: the smallest first block is not in
    # the first chunk
    (_half_identity(66), 40),
], ids=["ap_two_tight", "half_identity_6", "half_identity_10",
        "half_identity_66_sampled"])


@_TIE_CASES
def test_batched_search_matches_reference_on_exact_ties(g, sample):
    assert_same_result(paving_epsilon(g, sample=sample, seed=5),
                       reference_paving(g, sample=sample, seed=5))


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of ``64 // m`` partitions (10 on 6 rows, 6 on 10, one
    from 33 rows on) and stacks of at most 64 entries (one matrix a
    stack for blocks of 6 rows or more), so that a search of 5 rows or
    more takes several chunks, and each balance's record carries from
    one chunk to the next."""
    monkeypatch.setattr(paving, "_CHUNK_ENTRIES", 64)


@pytest.mark.parametrize("m", range(1, 11))
def test_pruned_search_matches_reference_in_small_chunks(m, small_chunks):
    test_batched_search_matches_reference_exhaustive(m)


@pytest.mark.parametrize("m", (30, 66, 130))
def test_pruned_sampled_search_matches_reference_in_small_chunks(
        m, small_chunks):
    test_batched_search_matches_reference_sampled(m)


@_TIE_CASES
def test_pruned_search_keeps_exact_ties_in_small_chunks(g, sample,
                                                        small_chunks):
    # equal values: a partition that ties its record may not be skipped
    test_batched_search_matches_reference_on_exact_ties(g, sample)


def _twelve_row_frame():
    """A 12x6 unit-norm 2-tight frame: a weight-in-front frame and a
    4x2 frame on the diagonal, its rows permuted and some negated."""
    s = sqrt_rational(Fraction(1, 2))
    frame = block_diag([weight_in_front(make_two_row_table((5, 2), 6)),
                        ExactMatrix([[1, 0], [0, 1], [s, s], [s, -s]])])
    rng = random.Random(1)
    order = list(range(frame.rows))
    rng.shuffle(order)
    rows = [[-x for x in frame.row(i)] if rng.random() < 0.5
            else frame.row(i) for i in order]
    return ExactMatrix(rows)


def _twelve_row_projection():
    """The Gram projection of :func:`_twelve_row_frame`."""
    return gram_projection(_twelve_row_frame(), 2)


@pytest.mark.parametrize("chunked", (False, True), ids=["default", "small"])
def test_pruned_search_matches_reference_on_a_projection(chunked,
                                                         monkeypatch):
    if chunked:
        monkeypatch.setattr(paving, "_CHUNK_ENTRIES", 64)
    g = _twelve_row_projection()
    assert_same_result(paving_epsilon(g), reference_paving(g))


def test_pruning_solves_about_one_block_per_partition(monkeypatch):
    # the larger block of every partition is solved, the smaller one
    # only where the partition could still set its balance's record.
    # The 12 rows are one chunk, and the record tightens within it.
    # Most skips are of unbalanced partitions, whose larger block has
    # norm exactly 1: one is skipped when the computed norm lands a
    # rounding above the record.  Each block size goes to eigvalsh in a
    # few stacks: one or two of larger blocks a balance, and a few
    # batches of smaller ones.
    solved = []
    real = np.linalg.eigvalsh

    def counted(blocks):
        solved.append(len(blocks))
        return real(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    result = paving_epsilon(_twelve_row_projection())
    assert result.partitions_examined == 2048
    assert sum(solved) < 1.05 * result.partitions_examined
    assert len(solved) < 40


def _profile(monkeypatch):
    """The sizes of the blocks the search solves, one entry a block."""
    solved = []
    real = np.linalg.eigvalsh

    def counted(blocks):
        solved.extend([blocks.shape[-1]] * len(blocks))
        return real(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return solved


def test_column_norm_bound_prunes_balanced_blocks(monkeypatch):
    # 16 rows are 16 chunks of 2,048 partitions.  From the second chunk
    # on, the balanced record is 0 and every balanced partition whose
    # larger block has a column norm above it is given inf, unsolved:
    # about 6,464 blocks of 8 rows become a few hundred.  The other
    # balances' records lie near 1, above the widest column norm less
    # the margin, and take no bound.
    g = gram_projection(weight_in_front(make_two_row_table((7, 5, 3, 1),
                                                           8)), 2)
    solved = _profile(monkeypatch)
    result = paving_epsilon(g)
    assert result.per_size_histogram[8] < 1e-15
    assert solved.count(8) < 500
    assert len(solved) < 0.85 * result.partitions_examined


def _reflected_projection():
    """The Gram projection of a reflection of :func:`_twelve_row_frame`,
    whose best balanced 2-paving lies strictly between 0 and 1."""
    return gram_projection(reflected([1, 2, 0, 0, 0, 1, 2, 0, 0, 0, -1, 1],
                                     _twelve_row_frame()), 2)


def _reflection_sum(rng, pairs):
    """``G = (I + B) / 2`` for ``B`` a direct sum of 2x2 reflections
    ``c [[a, b], [b, -a]]`` with ``a^2 + b^2 = 1``, rows shuffled: equal
    values abound, and a block holding one whole reflection has its
    spectral norm ``c`` equal to a column norm, which the floats put a
    rounding to either side."""
    m = 2 * pairs
    b = [[Fraction(0)] * m for _ in range(m)]
    order = list(range(m))
    rng.shuffle(order)
    for p in range(pairs):
        i, j = order[2 * p], order[2 * p + 1]
        c = rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 2),
                        Fraction(3, 4)))
        x, y = rng.choice(((3, 4), (5, 12), (8, 15), (20, 21)))
        r = Fraction(1, math.isqrt(x * x + y * y))
        b[i][i], b[j][j] = c * x * r, -c * x * r
        b[i][j] = b[j][i] = c * y * r
    return ExactMatrix([[(int(i == j) + b[i][j]) / 2 for j in range(m)]
                        for i in range(m)])


def test_bound_prunes_a_reflected_projection_bit_for_bit(small_chunks):
    # a balanced record of about 0.82 carries across 410 chunks
    g = _reflected_projection()
    assert_same_result(paving_epsilon(g), reference_paving(g))


def test_bound_prunes_a_sixteen_row_reflection_bit_for_bit(monkeypatch):
    # the 16 chunks carry a balanced record of about 0.44
    g = gram_projection(reflected(
        [1, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0],
        weight_in_front(make_two_row_table((7, 5, 3, 1), 8))), 2)
    solved = _profile(monkeypatch)
    result = paving_epsilon(g)
    monkeypatch.undo()
    assert 0.4 < result.per_size_histogram[8] < 0.5
    assert solved.count(8) < 0.5 * 6435
    assert_same_result(result, reference_paving(g))


@pytest.mark.parametrize("seed", range(24))
def test_bound_keeps_ties_of_reflection_sums(seed, small_chunks):
    # a whole reflection in a block puts the block's bound within a few
    # roundings of its norm, and so of a record that other partitions
    # tie: the margin keeps such a block from being skipped, which on
    # some of these seeds would move the tie-break
    rng = random.Random(900 + seed)
    g = _reflection_sum(rng, rng.choice((4, 5, 6)))
    assert_same_result(paving_epsilon(g), reference_paving(g))


@pytest.mark.parametrize("scale", (10 ** 200, Fraction(1, 10 ** 160)),
                         ids=["overflow", "underflow"])
def test_bound_is_off_where_squares_leave_the_float_range(
        scale, small_chunks, monkeypatch, tmp_path, capsys):
    # 2G - I scaled to entries near 1e200 squares past the float64
    # range, and to entries near 1e-160 below its normal numbers: the
    # search takes no bound and solves the larger block of every
    # partition, as pave --gram reads such a matrix
    g = _reflection_sum(random.Random(77), 5)
    big = ExactMatrix([[(int(i == j) + scale * (
        2 * g.entry(i, j).as_fraction() - int(i == j))) / 2
        for j in range(g.cols)] for i in range(g.rows)])
    path = tmp_path / "big.json"
    path.write_text(serialize(big))
    solved = _profile(monkeypatch)
    assert cli.main(["pave", str(path), "--gram"]) == 0
    monkeypatch.undo()
    want = reference_paving(big)
    assert capsys.readouterr().out == json.dumps(want.to_json_dict(),
                                                 sort_keys=True) + "\n"
    assert len(solved) >= want.partitions_examined
