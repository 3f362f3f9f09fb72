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

A balance that holds a record from an earlier chunk of its worker (see
below) also skips larger blocks unsolved.  The spectral norm of a block
of ``B = 2G - I`` is at least its largest column 2-norm, and a block is
given the value inf when that column norm, less ``_MARGIN`` (2^-30) of
it, is above the record.  The margin covers the rounding of the column
norm and LAPACK's error bound on the computed norm, so a skipped
block's computed norm is above the record as well.  The bound is taken
only where the record, plus the margin, is below the widest column norm
of ``B``, and not at all where a square of ``B`` leaves the normal
float64 range.  So every result is the same to the bit as solving both
blocks of every partition, on any symmetric input.

A search of two or more chunks is spread over the CPUs the process may
use, one worker a CPU and at most one a chunk.  The caller searches
chunks 0, W, 2W, ... and W - 1 forked children the others, each from
the caller's arrays and with records of its own, and a child sends its
histogram and best partition back through a pipe.  A record decides
only which blocks are solved, never a value: each balance's least value
and the least (value, first block) over the workers are those of one
search of every chunk in turn, and the histogram's keys are put in the
order that search meets them.  So every output is the same to the bit
on one CPU or several.  Where ``os.fork`` or ``os.sched_getaffinity``
is missing, one CPU is usable, or the search is one chunk (every 8-row
search, and a sample of a few partitions), it runs in process.

On a projection ``B`` is a reflection, each of its columns has norm 1,
and at half rank the larger block of every unbalanced partition has
norm 1: its computed norm, 1 give or take a rounding, mostly lies above
the record, so about one block a partition is solved, and only the
balanced partitions take the bound.  On the Gram projections of
weight-in-front frames their record is 0 from a worker's first chunk
on: on 16 rows the search in process solves 389 blocks of 8 rows for
its 6,435 balanced partitions, 330 of them in its first chunk, and each
worker solves all of its own first chunk's.  In process the search makes one ``eigvalsh`` call
per 167 partitions on 16 rows and per 94-110 on 24, and a partition
costs about 3.8 us on 16 rows and 6 us on 24 sampled (process time,
numpy 2.4, one core of a 2-CPU Xeon), most of it in LAPACK.  On both
CPUs the exhaustive search of 24 rows took 32.5-36.6 s, against 70-79 s
in process (wall time, two runs each).
"""

from __future__ import annotations

import operator
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

# The relative margin of the column-norm bound.  A block is skipped
# only when its largest column norm, less this share, is above the
# record.  The spectral norm is at least every column norm; LAPACK
# computes it within p(k)·ε of itself (LAPACK Users' Guide, 3rd ed.,
# §4.7), and the column norm is computed within about k·ε of itself, for
# ε = 2⁻⁵³ and blocks of k rows.  2⁻³⁰ = 2²³·ε covers both with p(k) as
# large as k², for blocks of up to 2,048 rows, twice the CLI's
# MAX_DIMENSION.
_MARGIN = 2.0 ** -30


def _integer(name: str, value) -> int:
    """``value`` as an int: an int or a numpy integer, not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _spread(search, chunks: int) -> list:
    """The results of ``search(share, workers)`` for every share of the
    chunks, one share per usable CPU, at most one per chunk.

    The caller searches share 0 and one forked child each other share,
    so every child starts from the caller's arrays; fork is only where
    ``os.fork`` and ``os.sched_getaffinity`` exist and two or more CPUs
    are usable, and else the one share is searched in process.  A child
    writes nothing but its marshalled result to its pipe and leaves
    through ``os._exit``; a share whose child fails, or could not be
    forked, is searched again by the caller, and every child is reaped,
    killed first where the caller is unwinding, before this returns.
    """
    import os
    workers = 1
    if chunks > 1 and hasattr(os, "fork") and hasattr(
            os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), chunks)
    if workers == 1:
        return [search(0, 1)]
    import marshal
    import signal
    import warnings

    children = []
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on forking a process with
                    # threads, as numpy's OpenBLAS threads are; OpenBLAS
                    # stops them for a fork itself, and a child runs
                    # numpy alone
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                children.append((share, None, None))
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(search(share, workers)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((share, pid, open(read, "rb")))
        results = [search(0, workers)]
        while children:
            share, pid, pipe = children[0]
            data = status = None
            if pid is not None:
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
            children.pop(0)
            results.append(marshal.loads(data) if status == 0 and data
                           else search(share, workers))
        return results
    finally:
        for _, pid, pipe in children:
            if pid is not None:
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def paving_epsilon(g: ExactMatrix, sample: int | None = None,
                   seed: int = 0) -> PavingResult:
    """Search 2-pavings of a symmetric matrix ``G``.

    Enumerates every unordered partition (fixing index 0 in the first
    block, including the trivial one) when the size is at most
    EXHAUSTIVE_LIMIT; otherwise ``sample`` random partitions, at most
    SAMPLE_LIMIT, must be requested (seeded, reproducible; ``seed`` must
    be >= 0, and the exhaustive search ignores it).  ``sample`` and a
    sampled search's ``seed`` are an int or a numpy integer; a bool or
    any other value raises DomainError.  Ties on the value are broken
    toward the lexicographically smallest first block, making the result
    deterministic.  A search of several chunks forks a child for each
    further usable CPU and reaps them all before it returns; the result
    is the same to the bit on any number of CPUs.
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
    if sample is not None:
        sample, seed = _integer("sample", sample), _integer("seed", seed)
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

    def norms(sets, k, record=None):
        """Spectral norm of ``base`` compressed to each row's member set
        of the boolean ``sets``, every one of ``k`` members: one
        ``eigvalsh`` call per ``(rows, k, k)`` stack of at most
        ``_CHUNK_ENTRIES`` entries.  With a ``record``, a block whose
        largest column norm, less ``_MARGIN`` of it, is above the record
        is given ``inf``, unsolved: its computed norm is above the
        record too."""
        if record is not None:
            # the squared column norms of every block at once, from the
            # squares of ``base``: no block is gathered to be skipped.
            # einsum, not ``@``: a product through BLAS touches its
            # buffers, about 0.5 MiB more peak RSS on the benchmark
            sums = np.einsum("ij,jk->ik", sets.astype(float), squares)
            columns = np.where(sets, sums, 0.0).max(axis=1)
            solve = np.sqrt(columns) * (1 - _MARGIN) <= record
            out = np.full(len(sets), np.inf)
            out[solve] = norms(sets[solve], k)
            return out
        out = np.empty(len(sets))
        step = max(1, _CHUNK_ENTRIES // (k * k))
        for lo in range(0, len(sets), step):
            idx = np.nonzero(sets[lo:lo + step])[1].reshape(-1, k)
            # one take by flat index: 1.6-1.9 times as fast as indexing
            # with two broadcast index arrays, for an index as large as
            # the stack
            blocks = base.ravel().take(idx[:, :, None] * m + idx[:, None, :])
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

    # The widest column norm of ``base``: no column norm of a block, and
    # so no bound, exceeds it.  The bound is taken only where every
    # nonzero square is a normal float64 and no column's sum of squares
    # comes near overflow, so that no block's sum overflows or underflows
    # and each bound is within its rounding of the true column norm.
    # Else, and in a search of one chunk, which has no record from an
    # earlier chunk, ``widest`` is 0 and no bound is taken.
    chunk = max(1, _CHUNK_ENTRIES // m)
    chunks = -(-examined // chunk)
    widest, squares = 0.0, None
    if chunks > 1:
        with np.errstate(over="ignore"):
            squares = base * base
        widest = float(np.sqrt(squares.sum(axis=0).max()))
        if not (widest < 2.0 ** 500 and np.all(
                (squares >= np.finfo(float).tiny) | (base == 0))):
            widest = 0.0

    def search(share, workers):
        """The records of chunks ``share``, ``share + workers``, ...:
        each balance's least value, the first of those chunks that holds
        the balance, and the least ``(value, first block, second
        block)``.  Each balance's record prunes only these chunks."""
        best = None
        hist: dict[int, float] = {}
        born: dict[int, int] = {}
        for c in range(share, chunks, workers):
            lo = c * chunk
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
                # a balance with a record from an earlier chunk of this
                # share skips the larger blocks whose column norms lie
                # above it, where the record lies below the widest column
                # norm, which bounds them all
                record = hist.get(b, np.inf)
                top = norms(larger, m - b,
                            record if record * (1 + _MARGIN) < widest
                            else None)
                v[rows] = top
                # then the smaller blocks, in the order of the larger
                # norms and in batches of growing size, while the larger
                # norm is at most the balance's record.  A batch takes
                # every larger norm tied with its first, which the record
                # cannot fall below: every value left is at least that
                # norm.  A balance of 0 has an empty smaller block, of
                # norm 0.0.
                order = np.argsort(top)
                ranked = top[order]
                done, step = 0, 1
                while b and done < len(rows) and ranked[done] <= record:
                    tie, cut = np.searchsorted(
                        ranked, [ranked[done], record], side="right").tolist()
                    stop = min(max(done + step, tie), cut)
                    take = order[done:stop]
                    both = np.maximum(top[take], norms(~larger[take], b))
                    v[rows[take]] = both
                    record = min(record, float(both.min()))
                    done, step = stop, 2 * step
                low = float(v[rows].min())
                if b not in hist:
                    hist[b], born[b] = low, c
                elif low < hist[b]:
                    hist[b] = low
            low = float(v.min())
            if best is not None and low > best[0]:
                continue
            for r in np.flatnonzero(v == low):
                s = tuple(np.flatnonzero(member[r]).tolist())
                if best is None or low < best[0] or s < best[1]:
                    best = (low, s, tuple(np.flatnonzero(~member[r]).tolist()))
        return hist, born, best

    # the least value of each balance over the shares, keyed in the order
    # one search of every chunk in turn would have met the balances, and
    # the least (value, first block) over the shares
    hist: dict[int, float] = {}
    born: dict[int, int] = {}
    best = None
    for part_hist, part_born, part_best in _spread(search, chunks):
        for b, low in part_hist.items():
            if b not in hist or low < hist[b]:
                hist[b] = low
            born[b] = min(born.get(b, chunks), part_born[b])
        if best is None or part_best[:2] < best[:2]:
            best = part_best
    hist = {b: hist[b] for b in sorted(hist, key=lambda b: (born[b], b))}
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
