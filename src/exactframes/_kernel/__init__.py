"""The exact arithmetic kernel on radical-term tuples (see ``pycore``)."""

from exactframes._kernel.pycore import (add_terms, dot_terms, is_squarefree,
                                        make_terms, matmul_terms, mul_terms,
                                        neg_terms, root_terms, scale_terms,
                                        squarefree_split)

__all__ = ["add_terms", "dot_terms", "is_squarefree", "make_terms",
           "matmul_terms", "mul_terms", "neg_terms", "root_terms",
           "scale_terms", "squarefree_split"]
