"""End-to-end acceptance gate.

Each test below covers one numbered acceptance criterion and finishes by
printing a single "criterion N: PASS" line (visible with ``pytest -s``;
``pytest -v`` shows the same per-criterion status through the test
names).  Criteria with runtime bounds enforce them with a monotonic
clock.
"""

import math
import random
import time
from fractions import Fraction

from exactframes import _kernel
from exactframes.errata import findings, published_third_basis
from exactframes.errors import BlockFormError, TableValidationError
from exactframes.hyperplane import build, predicted_sparsity
from exactframes.matrices import ExactMatrix
from exactframes.paving import gram_projection, paving_epsilon
from exactframes.radicals import RadicalScalar, make, sqrt_rational
from exactframes.two_tight import (TwoRowTable, ap_two_tight,
                                   make_two_row_table, weight_in_front)
from exactframes.unitary import (BlockForm, WeaveCoefficients, block_pair,
                                 constant_first_row, constant_two_rows,
                                 mub_r4, third_case, two_constant_diag, weave)
from exactframes.verify import (check_hyperplane_basis,
                                check_orthogonal_columns, check_tight_frame,
                                check_unbiased_pair, check_unitary)


def sq(p, q=1):
    return sqrt_rational(Fraction(p, q))


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([-1, 1])
    return ExactMatrix(rows)


ROTATIONS = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]


def rotation_coeffs(rng):
    p, q, r = rng.choice(ROTATIONS)
    return ExactMatrix([[Fraction(p, r), Fraction(q, r)],
                        [Fraction(-q, r), Fraction(p, r)]])


def test_criterion_1_exact_display_reproduction():
    start = time.monotonic()
    # sparse hyperplane bases, sizes 2-8
    assert build(2).matrix == ExactMatrix([[1, 1]])
    assert build(3).matrix == ExactMatrix([[1, 2, 1], [0, -1, 2]])
    assert build(4).matrix == ExactMatrix(
        [[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]])
    assert build(6).matrix == ExactMatrix([
        [1, 1, 1, 1, 1, 1],
        [1, 1, -1, -1, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ])
    block4 = [[1, 1, -1, -1], [1, -1, 0, 0], [0, 0, 1, -1]]
    assert build(8).matrix == ExactMatrix(
        [[1] * 8] + [r + [0] * 4 for r in block4]
        + [[0] * 4 + r for r in block4])
    seven = build(7).matrix
    assert seven.shape == (6, 7)
    assert not seven.entry(1, 0).is_zero and seven.entry(1, 4).is_zero
    assert seven.entry(4, 3).is_zero and not seven.entry(4, 4).is_zero

    # staircase bases with constant first row
    s6 = sq(1, 6)
    s12 = sq(1, 12)
    half = Fraction(1, 2)
    assert constant_first_row(3) == ExactMatrix([
        [sq(1, 3)] * 3,
        [-2 * s6, s6, s6],
        [0, -sq(1, 2), sq(1, 2)],
    ])
    assert constant_first_row(4) == ExactMatrix([
        [half] * 4,
        [-3 * s12, s12, s12, s12],
        [0, -2 * s6, s6, s6],
        [0, 0, -sq(1, 2), sq(1, 2)],
    ])

    # doubled staircases with two constant-modulus rows
    assert constant_two_rows(4) == ExactMatrix(
        [[-half if i == j else half for j in range(4)] for i in range(4)])
    assert constant_two_rows(6) == ExactMatrix([
        [s6] * 6,
        [-s6, -s6, -s6, s6, s6, s6],
        [-sq(2, 3), s6, s6, 0, 0, 0],
        [0, -sq(1, 2), sq(1, 2), 0, 0, 0],
        [0, 0, 0, -sq(2, 3), s6, s6],
        [0, 0, 0, 0, -sq(1, 2), sq(1, 2)],
    ])
    s8 = sq(1, 8)
    assert constant_two_rows(8) == ExactMatrix([
        [s8] * 8,
        [-s8, -s8, -s8, -s8, s8, s8, s8, s8],
        [-sq(3, 4), s12, s12, s12, 0, 0, 0, 0],
        [0, -sq(2, 3), s6, s6, 0, 0, 0, 0],
        [0, 0, -sq(1, 2), sq(1, 2), 0, 0, 0, 0],
        [0, 0, 0, 0, -sq(3, 4), s12, s12, s12],
        [0, 0, 0, 0, 0, -sq(2, 3), s6, s6],
        [0, 0, 0, 0, 0, 0, -sq(1, 2), sq(1, 2)],
    ])

    # two-constant unitaries
    third = Fraction(1, 3)
    assert two_constant_diag(3) == ExactMatrix([
        [-third, 2 * third, 2 * third],
        [2 * third, -third, 2 * third],
        [2 * third, 2 * third, -third],
    ])
    assert two_constant_diag(6) == ExactMatrix(
        [[Fraction(-2, 3) if i == j else third for j in range(6)]
         for i in range(6)])
    a, b = sq(1, 12), RadicalScalar(half)
    assert third_case() == ExactMatrix([
        [a, a, a, -b, -b, b],
        [a, a, a, -b, b, -b],
        [a, a, a, b, -b, -b],
        [-b, b, b, a, a, a],
        [b, -b, b, a, a, a],
        [b, b, -b, a, a, a],
    ])

    # arithmetic-progression 2-tight frame and its axis reversals
    frame = ap_two_tight(1, 2)
    top = ExactMatrix([list(frame.row(i)) for i in range(4)])
    assert top == ExactMatrix([
        [-sq(7, 16), sq(5, 16), sq(3, 16), sq(1, 16)],
        [sq(7, 16), -sq(5, 16), sq(3, 16), sq(1, 16)],
        [sq(7, 16), sq(5, 16), -sq(3, 16), sq(1, 16)],
        [sq(7, 16), sq(5, 16), sq(3, 16), -sq(1, 16)],
    ])
    assert top.reverse_rows() == ExactMatrix([
        [sq(7, 16), sq(5, 16), sq(3, 16), -sq(1, 16)],
        [sq(7, 16), sq(5, 16), -sq(3, 16), sq(1, 16)],
        [sq(7, 16), -sq(5, 16), sq(3, 16), sq(1, 16)],
        [-sq(7, 16), sq(5, 16), sq(3, 16), sq(1, 16)],
    ])
    assert top.reverse_cols() == ExactMatrix([
        [sq(1, 16), sq(3, 16), sq(5, 16), -sq(7, 16)],
        [sq(1, 16), sq(3, 16), -sq(5, 16), sq(7, 16)],
        [sq(1, 16), -sq(3, 16), sq(5, 16), sq(7, 16)],
        [-sq(1, 16), sq(3, 16), sq(5, 16), sq(7, 16)],
    ])
    bottom = ExactMatrix([list(frame.row(i)) for i in range(4, 8)])
    assert bottom == top.reverse_both()
    assert bottom == ExactMatrix([
        [-sq(1, 16), sq(3, 16), sq(5, 16), sq(7, 16)],
        [sq(1, 16), -sq(3, 16), sq(5, 16), sq(7, 16)],
        [sq(1, 16), sq(3, 16), -sq(5, 16), sq(7, 16)],
        [sq(1, 16), sq(3, 16), sq(5, 16), -sq(7, 16)],
    ])

    # the two 16 x 8 weighted frames
    grid = [
        [-1, 1, 1, 1, -1, 1, 1, 1],
        [1, -1, 1, 1, 1, -1, 1, 1],
        [1, 1, -1, 1, 1, 1, -1, 1],
        [1, 1, 1, -1, 1, 1, 1, -1],
        [-1, 1, 1, 1, 1, -1, -1, -1],
        [1, -1, 1, 1, -1, 1, -1, -1],
        [1, 1, -1, 1, -1, -1, 1, -1],
        [1, 1, 1, -1, -1, -1, -1, 1],
    ]

    def woven_rows(top_w, bottom_w):
        rows = []
        for weights in (top_w, bottom_w):
            for signs in grid:
                rows.append([s * sq(w, 64)
                             for s, w in zip(signs, weights)])
        return ExactMatrix(rows)

    table = make_two_row_table((15, 13, 11, 9), 16)
    assert weight_in_front(table) == woven_rows(
        (15, 13, 11, 9, 7, 5, 3, 1), (1, 3, 5, 7, 9, 11, 13, 15))
    table = make_two_row_table((15, 14, 13, 12), 16)
    assert weight_in_front(table) == woven_rows(
        (15, 14, 13, 12, 4, 3, 2, 1), (1, 2, 3, 4, 12, 13, 14, 15))

    # first two unbiased bases of R^4
    b1, b2, _ = mub_r4()
    assert b1 == ExactMatrix.identity(4)
    assert b2 == ExactMatrix(
        [[-half if i == j else half for j in range(4)] for i in range(4)])

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS exact display reproduction ({elapsed:.2f}s)")


def test_criterion_2_sparsity_table_and_recurrence():
    for n, count in ((4, 8), (6, 16), (7, 20), (8, 24)):
        assert build(n).sparsity == count
        assert predicted_sparsity(n) == count
    for n in (8, 16, 32, 64):
        assert predicted_sparsity(2 * n) == 2 * predicted_sparsity(n) + 2 * n
    assert build(16).sparsity == predicted_sparsity(16) == 64
    assert build(5).sparsity == 12
    finding = next(f for f in findings() if f.ident == "hyperplane-5-sparsity")
    assert finding.reproduced
    assert finding.claim.endswith("sparsity 11")
    print("criterion 2: PASS sparsity table, doubling recurrence, "
          "and the size-5 count of 12")


def test_criterion_3_certification_sweep():
    start = time.monotonic()
    for n in range(2, 65):
        report = check_unitary(constant_first_row(n))
        assert report.passed, n
        assert "approximate" not in report.to_json_dict(), n
        report = check_unitary(two_constant_diag(n))
        assert report.passed, n
        assert "approximate" not in report.to_json_dict(), n
    for two_n in range(4, 65, 2):
        report = check_unitary(constant_two_rows(two_n))
        assert report.passed, two_n
        assert "approximate" not in report.to_json_dict(), two_n
    rng = random.Random(31415)
    for _ in range(100):
        a = Fraction(rng.randrange(1, 80), rng.randrange(1, 10))
        b = Fraction(rng.randrange(0, 80), rng.randrange(1, 10))
        report = check_tight_frame(ap_two_tight(a, b))
        assert report.passed and report.unit_rows
        assert report.k_value == Fraction(2)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3: PASS certification sweep to size 64 plus 100 "
          f"random 2-tight frames ({elapsed:.2f}s)")


def test_criterion_4_weave_properties():
    rng = random.Random(27182)
    cases = 0
    # square orthonormal coefficients x unitary blocks: exact unitarity
    for _ in range(120):
        width = rng.randrange(2, 5)
        core = rotation_coeffs(rng)
        if width > 2:
            rows = [[0] * width for _ in range(width)]
            for i in range(2):
                for j in range(2):
                    rows[i][j] = core.entry(i, j)
            for i in range(2, width):
                rows[i][i] = 1
            core = ExactMatrix(rows)
        coeffs = WeaveCoefficients(signed_permutation(rng, width) @ core)
        assert coeffs.is_orthonormal
        n = rng.randrange(2, 5)
        blocks = [signed_permutation(rng, n) for _ in range(width)]
        woven = weave(coeffs, blocks)
        assert check_orthogonal_columns(woven).passed
        assert check_unitary(woven).passed
        cases += 1
    # rectangular orthogonal-column coefficients: orthogonal columns
    for _ in range(40):
        core = rotation_coeffs(rng)
        taller = ExactMatrix([list(core.row(0)), list(core.row(1)), [0, 0]])
        coeffs = WeaveCoefficients(signed_permutation(rng, 3) @ taller)
        assert not coeffs.is_orthonormal
        n = rng.randrange(2, 4)
        woven = weave(coeffs, [signed_permutation(rng, n) for _ in range(2)])
        assert check_orthogonal_columns(woven).passed
        cases += 1
    # orthonormal coefficients x unit-norm 2-tight blocks: 2-tight again
    for _ in range(40):
        coeffs = WeaveCoefficients(
            signed_permutation(rng, 2) @ rotation_coeffs(rng))
        blocks = [ap_two_tight(Fraction(rng.randrange(1, 30), 7),
                               Fraction(rng.randrange(0, 30), 7))
                  for _ in range(2)]
        woven = weave(coeffs, blocks)
        assert woven.shape == (16, 8)
        report = check_tight_frame(woven)
        assert report.passed and report.unit_rows
        assert report.k_value == Fraction(2)
        cases += 1
    assert cases == 200
    print("criterion 4: PASS 200 randomized weaves kept exact "
          "orthogonality, unitarity, and 2-tightness")


def test_criterion_5_errata_fixtures():
    # (a) the plain doubling with a = sqrt(3)/2, b = 1/2 leaves an exact
    #     row Gram defect instead of being unitary
    eye = ExactMatrix.identity(2)
    a = sqrt_rational(Fraction(3, 4))
    b = RadicalScalar(Fraction(1, 2))
    try:
        block_pair(eye, eye, a, b, BlockForm.PLAIN)
        raise AssertionError("plain form accepted unbalanced coefficients")
    except BlockFormError as exc:
        assert exc.defect == RadicalScalar(Fraction(1, 2))
    # (b) the published third basis fails row orthogonality with witness
    report = check_unitary(published_third_basis())
    assert not report.passed
    assert (report.witness.i, report.witness.j) == (1, 3)
    assert report.witness.residual == "-1/2"
    # (c) the free-form table is rejected at column 6
    try:
        TwoRowTable((20, 24, 19, 25, 1, 7, 2, 6),
                    (6, 2, 7, 1, 25, 14, 24, 20), 26)
        raise AssertionError("inconsistent table validated")
    except TableValidationError as exc:
        assert exc.bad_columns == (6,)
        assert exc.row_sums == (104, 99)
    # (d) the corrected forms all pass
    balanced = block_pair(eye, eye, a, b, BlockForm.BALANCED)
    assert check_unitary(balanced).passed
    bases = mub_r4()
    for i in range(3):
        assert check_unitary(bases[i]).passed
        for j in range(i + 1, 3):
            assert check_unbiased_pair(bases[i], bases[j]).passed
    rebuilt = make_two_row_table((20, 24, 19, 25), 26)
    assert rebuilt.top == (20, 24, 19, 25, 1, 7, 2, 6)
    assert check_hyperplane_basis(build(5).matrix).passed
    for finding in findings():
        assert finding.reproduced, finding.ident
    print("criterion 5: PASS all four discrepancy fixtures reproduce and "
          "their corrected forms pass")


def test_criterion_6_weight_table_identities():
    rng = random.Random(16180)
    for _ in range(50):
        k = rng.choice([2, 3, 4])
        values = [Fraction(rng.randrange(1, 50), rng.randrange(1, 6))
                  for _ in range(2 ** (k - 1))]
        m = max(values) + Fraction(rng.randrange(0, 40), 9)
        table = make_two_row_table(values, m)
        assert table.order == k
        row_target = Fraction(2) ** (k - 1) * table.m
        assert sum(table.top) == row_target
        assert sum(table.bottom) == row_target
        for t, bo in zip(table.top, table.bottom):
            assert t + bo == table.m
        frame = weight_in_front(table)
        raw = frame.scale(sqrt_rational(row_target))
        for i in range(raw.rows):
            assert raw.row_norm_squared(i) == row_target
        raw_t = raw.transpose()
        for j in range(raw.cols):
            assert raw_t.row_norm_squared(j) == Fraction(2) ** k * table.m
        report = check_tight_frame(frame)
        assert report.passed and report.unit_rows
        assert report.k_value == Fraction(2)
    print("criterion 6: PASS 50 random weight tables satisfied the exact "
          "sum identities and normalized to unit-norm 2-tight frames")


def test_criterion_7_paving_analyzer():
    start = time.monotonic()
    half = RadicalScalar(Fraction(1, 2))
    for frame in (ap_two_tight(1, 2),
                  weight_in_front(make_two_row_table((15, 14, 13, 12), 16))):
        g = gram_projection(frame, 2)
        assert g @ g == g
        assert g.is_symmetric()
        for i in range(g.rows):
            assert g.entry(i, i) == half
    g = gram_projection(ap_two_tight(1, 2), 2)
    first = paving_epsilon(g)
    second = paving_epsilon(g)
    assert first == second
    assert first.partitions_examined == 2 ** 7
    assert first.exhaustive
    assert first.matrix_id == "8x8-9e0183567946"
    assert first.best_partition == ((0, 3, 5, 6), (1, 2, 4, 7))
    assert abs(first.best_value) < 1e-9
    assert abs(first.per_size_histogram[0] - 1.0) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 7: PASS exact Gram projections and deterministic "
          f"exhaustive paving search ({elapsed:.2f}s)")


def test_criterion_8_scalar_kernel_laws():
    rng = random.Random(14142)
    rads = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15]

    def random_scalar():
        x = RadicalScalar(0)
        for _ in range(rng.randrange(0, 4)):
            x = x + make(Fraction(rng.randrange(-9, 10),
                                  rng.randrange(1, 8)),
                         rng.choice(rads))
        return x

    def as_float(x):
        return sum(float(coeff) * math.sqrt(rad) for rad, coeff in x.terms)

    def well_formed(x):
        rads_seen = [rad for rad, _ in x.terms]
        assert rads_seen == sorted(set(rads_seen))
        for rad, coeff in x.terms:
            assert rad >= 1 and _kernel.is_squarefree(rad)
            assert coeff != 0
        return True

    zero = RadicalScalar(0)
    one = RadicalScalar(1)
    for _ in range(1000):
        x, y, z = random_scalar(), random_scalar(), random_scalar()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert (x - x).is_zero
        assert x * zero == zero
        for value in (x + y, x * y, x - y, (x + y) * z):
            assert well_formed(value)
            assert abs(value.to_float() - as_float(value)) <= 1e-9
    print("criterion 8: PASS 1000 randomized exact ring-law cases with "
          "float agreement within 1e-9")
