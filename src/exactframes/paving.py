"""Desk-scale 2-paving analysis of tight-frame Gram projections.

For a unit-norm 2-tight frame the scaled Gram matrix ``G = A A^T / 2``
is an exact orthogonal projection with constant diagonal 1/2, the class
of matrices whose paving behaviour is of interest.  A 2-paving of
``G`` is a partition of its index set into two blocks; its quality is
``max(|| (2G - I)_S ||, || (2G - I)_S' ||)`` over the diagonal
compressions to the blocks, where ``|| . ||`` is the spectral norm.

Partition search is combinatorial: exhaustive enumeration is capped at
24 indices (2^23 partitions); beyond that a seeded random sample must
be requested explicitly, of at most as many partitions.  Spectral norms
are floating point (symmetric eigenvalues via LAPACK); everything up to
the Gram projection itself is exact.

The search is batched.  Partitions are taken a chunk at a time as a
boolean membership array; the blocks of one size across the chunk are
gathered into a ``(batch, k, k)`` stack, and one ``eigvalsh`` call
covers the stack.  LAPACK sees the same entries as it would one block at
a time, so every value is the same to the bit.

The larger block of each partition is solved first, and the smaller one
only where the larger block's norm is at most the best value recorded
for the partition's balance when the chunk began.  A partition's value
is at least either norm, so one skipped has a value above that record,
which is itself at least the best value: it could neither lower the
histogram nor tie for the best partition.  Only computed values are
compared, with no slack, so every result is the same to the bit as
solving both blocks, on any symmetric input.  On a projection the
larger block of an unbalanced partition has norm 1, and its computed
norm, 1 give or take a rounding, mostly lies above the record, so about
one block a partition is solved.  On the Gram projections of
weight-in-front frames a partition of the exhaustive search costs about
9 us on 16 rows and 12 us on 24 rows (numpy 2.4, one core of a 2-CPU
Xeon), most of it in LAPACK, so the search of 24 rows takes about 100 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from exactframes import _kernel
from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError, ResourceLimitError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import RadicalScalar
from exactframes.verify import check_tight_frame

EXHAUSTIVE_LIMIT = 24
# the most partitions one search examines, sampled or exhaustive
SAMPLE_LIMIT = 1 << (EXHAUSTIVE_LIMIT - 1)


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
    return scaled_gram(a, k)


def scaled_gram(a: ExactMatrix, k: Fraction | int) -> ExactMatrix:
    """The exact ``A A^T / k``, with no tightness check.

    For callers that have certified ``a`` as a k-tight frame already;
    :func:`gram_projection` checks first.  The entries come from the
    graded Gram (:func:`exactframes._kernel.gram_terms`): integer
    matrix products of the rows' coefficients per radicand, folded onto
    cores by the gcd rule, with no float; each entry on or above the
    diagonal is built once and mirrored below it.
    """
    inv = 1 / Fraction(k)
    return ExactMatrix._raw(a.rows, a.rows, _kernel.gram_terms(
        a._data, inv.numerator, inv.denominator))


def weight_profile(a: ExactMatrix) -> tuple[Fraction, ...]:
    """Exact squared column sums of a matrix (the per-position weight
    allocation of a frame).  Raises DomainError if any column's squared
    sum is irrational, which cannot happen for frame constructions
    whose Gram entries are rational."""
    return tuple(
        RadicalScalar._raw(_kernel.dot_terms(col, col)).as_fraction()
        for col in a.transpose()._data)


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


# Bound on the float64 entries of one chunk's block stacks, which hold
# at most ``chunk * m * m``: about 256 KiB, so that peak memory stays
# flat.  On 16 rows, chunks of 1 MiB were not measurably faster.
_CHUNK_ENTRIES = 1 << 15


def _block_norms(base: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Spectral norm of ``base`` compressed to each row's member set.

    Rows of the boolean ``member`` with the same count are gathered into
    one ``(rows, k, k)`` stack and go to a single ``eigvalsh`` call; an
    empty set has norm 0.0.
    """
    sizes = member.sum(axis=1)
    out = np.zeros(len(member))
    # np.bincount, not np.unique: the first np.unique call of a process
    # raises its peak memory by about 1.3 MiB (numpy 2.4)
    for k in np.flatnonzero(np.bincount(sizes)):
        if k == 0:
            continue
        rows = np.flatnonzero(sizes == k)
        idx = np.nonzero(member[rows])[1].reshape(len(rows), k)
        blocks = base[idx[:, :, None], idx[:, None, :]]
        out[rows] = np.abs(np.linalg.eigvalsh(blocks)).max(axis=1)
    return out


def paving_epsilon(g: ExactMatrix, sample: int | None = None,
                   seed: int = 0) -> PavingResult:
    """Search 2-pavings of a symmetric matrix ``G``.

    Enumerates every unordered partition (fixing index 0 in the first
    block, including the trivial one) when the size is at most
    EXHAUSTIVE_LIMIT; otherwise ``sample`` random partitions, at most
    SAMPLE_LIMIT, must be requested (seeded, reproducible; ``seed`` must
    be >= 0, and the exhaustive search ignores it).  Ties on
    the value are broken toward the lexicographically smallest first
    block, making the result deterministic.
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
    if sample is not None and sample > SAMPLE_LIMIT:
        raise ResourceLimitError(
            f"sample of {sample} partitions is beyond the cap of "
            f"2^{EXHAUSTIVE_LIMIT - 1} = {SAMPLE_LIMIT}, the exhaustive "
            "search's own budget")
    if sample is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    base = 2.0 * np.array(g.to_float_rows()) - np.eye(m)
    if not np.isfinite(base).all():
        raise DomainError("an entry of 2G - I overflows a float64")
    bits = m - 1
    if sample is None:
        examined = 1 << bits
        words = None
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        # numpy draws at most 64 bits at once: a mask is its row of
        # words joined low word first, cut to ``bits`` bits.  A single
        # word draws the same stream as a flat array of the same bound.
        words = rng.integers(0, 1 << min(bits, 64),
                             size=(sample, max(1, -(-bits // 64))),
                             dtype=np.uint64)
        examined = sample
        exhaustive = False

    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    hist: dict[int, float] = {}
    chunk = max(1, _CHUNK_ENTRIES // (m * m))
    for lo in range(0, examined, chunk):
        hi = min(lo + chunk, examined)
        if words is None:
            block = np.arange(lo, hi, dtype=np.uint64)[:, None]
        else:
            block = words[lo:hi]
        # one row per mask: index 0 is always in the first block, and
        # index i > 0 is when bit i - 1 of the mask is set
        member = np.ones((hi - lo, m), dtype=bool)
        member[:, 1:] = np.unpackbits(
            block.astype("<u8", copy=False).view(np.uint8), axis=1,
            count=bits, bitorder="little")
        size = member.sum(axis=1)
        balance = np.minimum(size, m - size)
        # the larger block first, the smaller one only where the value
        # could still reach its balance's record: v >= either norm, so a
        # skipped row keeps a lower bound above that record, and can
        # neither lower the histogram nor tie for the best partition
        larger = member ^ (size < m - size)[:, None]
        v = _block_norms(base, larger)
        bound = np.full(m // 2 + 1, np.inf)
        bound[list(hist)] = list(hist.values())
        rest = np.flatnonzero(v <= bound[balance])
        v[rest] = np.maximum(v[rest], _block_norms(base, ~larger[rest]))
        for b in np.flatnonzero(np.bincount(balance)).tolist():
            low = float(v[balance == b].min())
            if b not in hist or low < hist[b]:
                hist[b] = low
        low = float(v.min())
        if best is not None and low > best[0]:
            continue
        for r in np.flatnonzero(v == low):
            s = tuple(np.flatnonzero(member[r]).tolist())
            if best is None or low < best[0] or s < best[1]:
                best = (low, s, tuple(np.flatnonzero(~member[r]).tolist()))
    assert best is not None
    return PavingResult(
        matrix_id=f"{m}x{m}-{g._text_digest()[:12]}",
        matrix_size=m,
        best_partition=(best[1], best[2]),
        best_value=best[0],
        per_size_histogram=hist,
        partitions_examined=examined,
        exhaustive=exhaustive,
    )
