"""Desk-scale 2-paving analysis of tight-frame Gram projections.

For a unit-norm 2-tight frame the scaled Gram matrix ``G = A A^T / 2``
is an exact orthogonal projection with constant diagonal 1/2, the class
of matrices whose paving behaviour is of interest.  A 2-paving of
``G`` is a partition of its index set into two blocks; its quality is
``max(|| (2G - I)_S ||, || (2G - I)_S' ||)`` over the diagonal
compressions to the blocks, where ``|| . ||`` is the spectral norm.

Partition search is combinatorial: exhaustive enumeration is capped at
24 indices (2^23 partitions); beyond that a seeded random sample must
be requested explicitly.  Spectral norms are floating point (symmetric
eigenvalues via LAPACK); everything up to the Gram projection itself is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError, ResourceLimitError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import ZERO
from exactframes.verify import check_tight_frame

EXHAUSTIVE_LIMIT = 24


def gram_projection(a: ExactMatrix, k: Fraction | int) -> ExactMatrix:
    """The exact projection ``A A^T / k`` of a certified k-tight frame.

    Verifies tightness with :func:`check_tight_frame` first and insists
    the certified constant equals ``k``; the result is then exactly
    idempotent and symmetric, with diagonal ``1/k`` on unit-norm input.
    """
    k = Fraction(k)
    report = check_tight_frame(a)
    if not report.passed:
        w = report.witness
        raise PreconditionError(
            "input is not a tight frame: witness "
            f"({w.i}, {w.j}) kind {w.kind} residual {w.residual}")
    if report.k_value != k:
        raise PreconditionError(
            f"frame is {report.k_value}-tight, not {k}-tight")
    return a.matmul(a.transpose()).scale(Fraction(1, k))


def weight_profile(a: ExactMatrix) -> tuple[Fraction, ...]:
    """Exact squared column sums of a matrix (the per-position weight
    allocation of a frame).  Raises DomainError if any column's squared
    sum is irrational, which cannot happen for frame constructions
    whose Gram entries are rational."""
    out = []
    for j in range(a.cols):
        total = ZERO
        for i in range(a.rows):
            e = a.entry(i, j)
            total = total + e * e
        out.append(total.as_fraction())
    return tuple(out)


@dataclass(frozen=True)
class PavingResult:
    """Outcome of a 2-paving search.

    ``best_partition`` holds two sorted tuples of 0-based indices that
    partition ``range(M)``; ``best_value`` is the achieved spectral
    bound.  ``per_size_histogram`` maps the balance ``min(|S|, M - |S|)``
    to the best value found at that balance.  ``exhaustive`` records
    whether every partition was examined.  ``matrix_id`` is a stable
    content label (size plus a digest of the exact entries) so pinned
    results can be matched to their input.
    """

    matrix_id: str
    matrix_size: int
    best_partition: tuple[tuple[int, ...], tuple[int, ...]]
    best_value: float
    per_size_histogram: dict[int, float]
    partitions_examined: int
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {
            "matrix_id": self.matrix_id,
            "matrix_size": self.matrix_size,
            "best_partition": [list(self.best_partition[0]),
                               list(self.best_partition[1])],
            "best_value": self.best_value,
            "per_size_histogram": {str(k): v for k, v
                                   in sorted(self.per_size_histogram.items())},
            "partitions_examined": self.partitions_examined,
            "exhaustive": self.exhaustive,
        }


def _spectral_norm(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def paving_epsilon(g: ExactMatrix, sample: int | None = None, seed: int = 0,
                   matrix_id: str | None = None) -> PavingResult:
    """Search 2-pavings of a symmetric matrix ``G``.

    Enumerates every unordered partition (fixing index 0 in the first
    block, including the trivial one) when the size is at most
    EXHAUSTIVE_LIMIT; otherwise ``sample`` random partitions must be
    requested (seeded, reproducible).  Ties on the value are broken
    toward the lexicographically smallest first block, making the
    result deterministic.
    """
    if not g.is_square:
        raise DimensionError(f"paving needs a square matrix, got {g.shape}")
    if not g.is_symmetric():
        raise PreconditionError("paving needs an exactly symmetric matrix")
    m = g.rows
    if m > EXHAUSTIVE_LIMIT and sample is None:
        raise ResourceLimitError(
            f"{m} indices give 2^{m - 1} partitions, beyond the "
            f"exhaustive cap of {EXHAUSTIVE_LIMIT}; pass sample= to "
            "search a seeded random subset")
    if sample is not None and sample < 1:
        raise DomainError(f"sample must be >= 1, got {sample}")
    base = 2.0 * np.array(g.to_float_rows()) - np.eye(m)

    def value_of(mask: int) -> tuple[float, tuple[int, ...],
                                     tuple[int, ...]]:
        s = tuple(i for i in range(m) if i == 0 or (mask >> (i - 1)) & 1)
        sc = tuple(i for i in range(1, m) if not (mask >> (i - 1)) & 1)
        idx_s = np.array(s, dtype=np.intp)
        idx_c = np.array(sc, dtype=np.intp)
        v = max(_spectral_norm(base[np.ix_(idx_s, idx_s)]),
                _spectral_norm(base[np.ix_(idx_c, idx_c)]))
        return v, s, sc

    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    hist: dict[int, float] = {}
    if sample is None:
        masks = range(1 << (m - 1))
        examined = 1 << (m - 1)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        # numpy draws at most 64 bits at once: join words, low word
        # first, and cut the top one down to size.  A single word draws
        # the same stream as a flat array of the same bound.
        bits = m - 1
        words = rng.integers(0, 1 << min(bits, 64),
                             size=(sample, max(1, -(-bits // 64))),
                             dtype=np.uint64)
        masks = (sum(int(w) << (64 * i) for i, w in enumerate(row))
                 & ((1 << bits) - 1) for row in words)
        examined = sample
        exhaustive = False
    for mask in masks:
        v, s, sc = value_of(mask)
        balance = min(len(s), len(sc))
        if balance not in hist or v < hist[balance]:
            hist[balance] = v
        if best is None or v < best[0] or (v == best[0] and s < best[1]):
            best = (v, s, sc)
    assert best is not None
    if matrix_id is None:
        matrix_id = f"{m}x{m}-{g._text_digest()[:12]}"
    return PavingResult(
        matrix_id=matrix_id,
        matrix_size=m,
        best_partition=(best[1], best[2]),
        best_value=best[0],
        per_size_histogram=hist,
        partitions_examined=examined,
        exhaustive=exhaustive,
    )
