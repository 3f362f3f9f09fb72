"""The exact arithmetic kernel on radical-term tuples (see ``pycore``)
and the Gram matrices of term-tuple rows.

A Gram below a fixed size is scanned pair by pair with
:func:`dot_terms`, which is faster there than the fixed cost of the
numpy calls.  At or above it the Gram is computed by integer matrix
products in ``graded``, the only kernel module that imports numpy.  It
is imported on the first such Gram, so a command whose Grams all stay
below the cut never loads numpy.
"""

from exactframes._kernel.pycore import (add_terms, dot_terms, is_squarefree,
                                        matmul_terms, mul_terms, neg_terms,
                                        root_terms, scale_terms,
                                        squarefree_split)

__all__ = ["add_terms", "dot_terms", "gram_mismatch", "gram_terms",
           "is_squarefree", "matmul_terms", "mul_terms", "neg_terms",
           "root_terms", "scale_terms", "squarefree_split"]

# Inputs with fewer entry products n (n + 1) / 2 * width than this are
# scanned pair by pair.  Measured on the small tiers of the construct
# and verify benchmarks (n <= 16), in one process with the cut switched
# from job to job (Python 3.11, numpy 2.4, 2-CPU Xeon): at 400 their
# median job took 6.7 % and 7.9 % longer than scanning everything, at
# 1200 it stayed within 1.2 %, inside the +-3 % noise.  Repeated calls
# in a tight loop cross over near 300 already.  The scan also keeps
# numpy unloaded: about 170 ms of a fresh process's start (README).
_SCAN_BELOW = 1200


def _small(rows) -> bool:
    n = len(rows)
    return n * (n + 1) // 2 * len(rows[0]) < _SCAN_BELOW


def gram_mismatch(rows, diag: tuple[int, int] | None, int_rows=None
                  ) -> tuple[int, int, tuple] | None:
    """The first ``(i, j, entry)``, 0-based with ``i <= j`` in
    row-major order, where ``entry = <rows[i], rows[j]>`` (a canonical
    term tuple) differs from ``p/q`` on the diagonal (``diag == (p,
    q)``, in lowest terms with ``p, q > 0``) and from 0 off it, or None.

    ``diag=None`` compares only the pairs with ``i < j``.  ``int_rows``
    is None or the same rows as ``(rads, ints, dens)``, one radicand
    per row (``ExactMatrix._int_rows``); the graded Gram then reads
    them instead of splitting the term tuples.
    """
    if not _small(rows):
        from exactframes._kernel import graded
        return graded.gram_mismatch(rows, diag, int_rows)
    want = () if diag is None else ((1,) + diag,)
    for i, row in enumerate(rows):
        for j in range(i + (diag is None), len(rows)):
            got = dot_terms(row, rows[j])
            if got != (want if i == j else ()):
                return i, j, got
    return None


def gram_terms(rows, num: int, den: int, int_rows=None) -> tuple:
    """The Gram matrix of ``rows`` times ``num/den`` (``num != 0``,
    ``den > 0``) as rows of canonical term tuples: entry (i, j) is
    ``scale_terms(dot_terms(rows[i], rows[j]), num, den)``.  ``int_rows``
    is as in :func:`gram_mismatch`."""
    if not _small(rows):
        from exactframes._kernel import graded
        return graded.gram_terms(rows, num, den, int_rows)
    n = len(rows)
    out = [[()] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j in range(i, n):
            out[i][j] = out[j][i] = scale_terms(
                dot_terms(row, rows[j]), num, den)
    return tuple(map(tuple, out))
