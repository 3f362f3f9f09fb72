"""Tests for the 2-paving analyzer: exact Gram projections, weight
profiles, and the deterministic partition search."""

import random
from fractions import Fraction

import pytest

from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError, ResourceLimitError)
from exactframes.matrices import ExactMatrix, from_fraction_rows
from exactframes.paving import (EXHAUSTIVE_LIMIT, PavingResult,
                                gram_projection, paving_epsilon,
                                weight_profile)
from exactframes.radicals import RadicalScalar, sqrt_rational
from exactframes.two_tight import ap_two_tight, make_two_row_table, \
    weight_in_front


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
    g = from_fraction_rows([[half if i == j else 0 for j in range(6)]
                            for i in range(6)])
    result = paving_epsilon(g)
    assert result.best_value == 0.0
    assert result.best_partition == ((0,), (1, 2, 3, 4, 5))
    assert result.partitions_examined == 32


def test_paving_of_rank_one_projection():
    half = Fraction(1, 2)
    g = from_fraction_rows([[half, half], [half, half]])
    result = paving_epsilon(g)
    assert result.best_partition == ((0,), (1,))
    assert result.best_value == 0.0
    assert result.per_size_histogram[0] == pytest.approx(1.0)
    assert result.partitions_examined == 2


def test_paving_custom_matrix_id_passthrough():
    g = gram_projection(ap_two_tight(1, 2), 2)
    result = paving_epsilon(g, matrix_id="example")
    assert result.matrix_id == "example"


def test_paving_rejects_non_square_and_asymmetric():
    with pytest.raises(DimensionError):
        paving_epsilon(ExactMatrix([[1, 2]]))
    with pytest.raises(PreconditionError, match="symmetric"):
        paving_epsilon(ExactMatrix([[1, 2], [3, 4]]))


def test_paving_large_matrix_needs_sampling():
    m = EXHAUSTIVE_LIMIT + 2
    half = Fraction(1, 2)
    g = from_fraction_rows([[half if i == j else 0 for j in range(m)]
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
    g = from_fraction_rows(rows)
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
    g = from_fraction_rows([[half if i == j else 0 for j in range(m)]
                            for i in range(m)])
    result = paving_epsilon(g, sample=50, seed=3)
    assert result == paving_epsilon(g, sample=50, seed=3)
    assert result.partitions_examined == 50 and not result.exhaustive
    first, second = result.best_partition
    assert first[0] == 0 and sorted(first + second) == list(range(m))
    # uniform masks put about half the rows in each block; masks cut to
    # their low 64 bits would put at most 65 of 128 rows in the first
    assert max(result.per_size_histogram) > m // 2 - 14


def test_paving_rejects_bad_sample_counts():
    g = ExactMatrix.identity(4)
    with pytest.raises(DomainError, match="sample"):
        paving_epsilon(g, sample=0)


def test_paving_result_matrix_ids_distinguish_inputs():
    a = paving_epsilon(gram_projection(ap_two_tight(1, 2), 2))
    b = paving_epsilon(gram_projection(ap_two_tight(1, 4), 2))
    assert a.matrix_id != b.matrix_id
    assert a.matrix_id.startswith("8x8-")
    assert len(a.matrix_id.split("-")[1]) == 12
