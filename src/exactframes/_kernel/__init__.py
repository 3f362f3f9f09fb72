"""The exact arithmetic kernel on radical-term tuples (see ``pycore``)
and the Gram matrices of term-tuple rows (see ``graded``)."""

from exactframes._kernel.graded import gram_mismatch, gram_terms
from exactframes._kernel.pycore import (add_terms, dot_terms, is_squarefree,
                                        matmul_terms, mul_terms, neg_terms,
                                        root_terms, scale_terms,
                                        squarefree_split)

__all__ = ["add_terms", "dot_terms", "gram_mismatch", "gram_terms",
           "is_squarefree", "matmul_terms", "mul_terms", "neg_terms",
           "root_terms", "scale_terms", "squarefree_split"]
