"""The tests' reference for the paving search: one partition at a time,
with masks as Python ints and two ``eigvalsh`` calls per partition.
The batched and pruned search of ``paving.paving_epsilon`` must agree
with it bit for bit."""

from fractions import Fraction

import numpy as np

from exactframes.matrices import ExactMatrix
from exactframes.paving import PavingResult


def reference_paving(g, sample=None, seed=0):
    """The :class:`PavingResult` of searching the 2-pavings of ``g``
    partition by partition, drawing the same masks as the search."""
    m = g.rows
    base = 2.0 * np.array(g.to_float_rows()) - np.eye(m)

    def norm(idx):
        if not idx:
            return 0.0
        idx = np.array(idx, dtype=np.intp)
        return float(np.max(np.abs(np.linalg.eigvalsh(
            base[np.ix_(idx, idx)]))))

    if sample is None:
        masks = range(1 << (m - 1))
        examined = 1 << (m - 1)
    else:
        bits = m - 1
        words = np.random.default_rng(seed).integers(
            0, 1 << min(bits, 64), size=(sample, max(1, -(-bits // 64))),
            dtype=np.uint64)
        masks = [sum(int(w) << (64 * i) for i, w in enumerate(row))
                 & ((1 << bits) - 1) for row in words]
        examined = sample
    best = None
    hist = {}
    for mask in masks:
        s = tuple(i for i in range(m) if i == 0 or (mask >> (i - 1)) & 1)
        sc = tuple(i for i in range(1, m) if not (mask >> (i - 1)) & 1)
        v = max(norm(s), norm(sc))
        balance = min(len(s), len(sc))
        if balance not in hist or v < hist[balance]:
            hist[balance] = v
        if best is None or v < best[0] or (v == best[0] and s < best[1]):
            best = (v, s, sc)
    return PavingResult(
        matrix_id=f"{m}x{m}-{g._text_digest()[:12]}", matrix_size=m,
        best_partition=(best[1], best[2]), best_value=best[0],
        per_size_histogram=hist, partitions_examined=examined,
        exhaustive=sample is None)


def assert_same_result(got, want):
    """Equal results, to the bit of every float."""
    # dataclass equality compares best_value and the histogram with ==,
    # under which 0.0 == -0.0
    assert got == want
    assert got.best_value.hex() == want.best_value.hex()
    assert ({b: v.hex() for b, v in got.per_size_histogram.items()}
            == {b: v.hex() for b, v in want.per_size_histogram.items()})


def reflected(v, frame):
    """``H A`` for the Householder reflection ``H = I - 2 v v^T / |v|^2``
    of an integer vector ``v``: a frame as tight as ``A``, whose Gram
    projection ``H G H`` mixes the rows that ``v`` meets."""
    s = sum(x * x for x in v)
    h = ExactMatrix([[int(i == j) - Fraction(2 * x * y, s)
                      for j, y in enumerate(v)] for i, x in enumerate(v)])
    return h @ frame
