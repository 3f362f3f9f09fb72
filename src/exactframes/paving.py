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
the Gram projection itself is exact.  numpy is imported by the search,
:func:`paving_epsilon`, once a call, so importing this module does not
load it.

The search is batched.  Partitions are taken a chunk at a time as a
boolean membership array and grouped by their balance
``b = min(|S|, M - |S|)``: within a balance every larger block has
``M - b`` indices and every smaller one ``b``.  The blocks of one size
are gathered into ``(batch, k, k)`` stacks, and one ``eigvalsh`` call
covers a stack.  LAPACK sees the same entries as it would one block at a
time, so every value is the same to the bit.

The larger block of each partition is solved first.  A balance's
partitions are then taken in ascending order of that norm, and their
smaller blocks solved in batches of growing size while the larger norm
is at most the balance's record, which each batch can lower.  A
partition's value is at least either norm, so one skipped has a value
above that record, which is itself at least the best value: it could
neither lower the histogram nor tie for the best partition.  The
histogram is a minimum and the tie-break is lexicographic on the first
block, so neither depends on the order in which partitions are solved.
Only computed values are compared, with no slack, so every result is the
same to the bit as solving both blocks of every partition, on any
symmetric input.  On a projection the larger block of an unbalanced
partition has norm 1, and its computed norm, 1 give or take a rounding,
mostly lies above the record, so about one block a partition is solved.
On the Gram projections of weight-in-front frames the search makes one
``eigvalsh`` call per 160 partitions on 16 rows and per 90 on 24, and a
partition costs about 6.3 us on 16 rows and 12 us on 24, sampled or
exhaustive (process time, numpy 2.4, one core of a 2-CPU Xeon), most of
it in LAPACK, so the exhaustive search of 24 rows takes about 100 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from exactframes import _kernel
from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError, ResourceLimitError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import RadicalScalar
from exactframes.verify import _tight_report

EXHAUSTIVE_LIMIT = 24
# the most partitions one search examines, sampled or exhaustive
SAMPLE_LIMIT = 1 << (EXHAUSTIVE_LIMIT - 1)


def gram_projection(a: ExactMatrix, k: Fraction | int) -> ExactMatrix:
    """The exact projection ``A A^T / k`` of a certified k-tight frame.

    Verifies tightness as :func:`exactframes.verify.check_tight_frame`
    does, without its unit-norm check, and insists the certified
    constant equals ``k``; the result is then exactly idempotent and
    symmetric, with diagonal ``1/k`` on unit-norm input.  The check and
    the Gram read the rows as the matrix keeps them, taken apart once.
    """
    k = Fraction(k)
    report = _tight_report(a)
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
    kernel's Gram stream (:func:`exactframes._kernel.gram_terms`), with
    no float; each entry on or above the diagonal is built once and
    mirrored below it.
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


# Bound on the entries of the search's arrays: a chunk's membership
# array holds at most this many booleans (``chunk * m``), and a block
# stack at most this many float64s (256 KiB), so that peak memory stays
# flat.  Chunks of this many partitions, a whole 16-row search in one,
# were not measurably faster on 16 rows or on 32 rows sampled.
_CHUNK_ENTRIES = 1 << 15


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
    import numpy as np

    base = 2.0 * np.array(g.to_float_rows()) - np.eye(m)
    if not np.isfinite(base).all():
        raise DomainError("an entry of 2G - I overflows a float64")

    def norms(sets, k):
        """Spectral norm of ``base`` compressed to each row's member set
        of the boolean ``sets``, every one of ``k`` members: one
        ``eigvalsh`` call per ``(rows, k, k)`` stack of at most
        ``_CHUNK_ENTRIES`` entries."""
        out = np.empty(len(sets))
        step = max(1, _CHUNK_ENTRIES // (k * k))
        for lo in range(0, len(sets), step):
            idx = np.nonzero(sets[lo:lo + step])[1].reshape(-1, k)
            blocks = base[idx[:, :, None], idx[:, None, :]]
            # eigvalsh returns each block's eigenvalues in ascending
            # order: the norm is the larger magnitude of the two ends,
            # and abs of both keeps a zero at +0.0
            w = np.linalg.eigvalsh(blocks)
            out[lo:lo + step] = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        return out

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
    chunk = max(1, _CHUNK_ENTRIES // m)
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
        # the larger block is the second one where the first is
        # smaller, and the first where the two are of a size
        flip = size < m - size
        v = np.empty(hi - lo)
        # np.bincount, not np.unique: the first np.unique call of a
        # process raises its peak memory by about 1.3 MiB (numpy 2.4)
        for b in np.flatnonzero(np.bincount(balance)).tolist():
            rows = np.flatnonzero(balance == b)
            larger = member[rows] ^ flip[rows, None]
            top = norms(larger, m - b)
            v[rows] = top
            # then the smaller blocks, in the order of the larger norms
            # and in batches of growing size, while the larger norm is
            # at most the balance's record.  A batch takes every larger
            # norm tied with its first, which the record cannot fall
            # below: every value left is at least that norm.  A balance
            # of 0 has an empty smaller block, of norm 0.0.
            record = hist.get(b, np.inf)
            order = np.argsort(top)
            ranked = top[order]
            done, step = 0, 1
            while b and done < len(rows) and ranked[done] <= record:
                tie, cut = np.searchsorted(ranked, [ranked[done], record],
                                           side="right").tolist()
                stop = min(max(done + step, tie), cut)
                take = order[done:stop]
                both = np.maximum(top[take], norms(~larger[take], b))
                v[rows[take]] = both
                record = min(record, float(both.min()))
                done, step = stop, 2 * step
            low = float(v[rows].min())
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
