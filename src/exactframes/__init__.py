"""Exact construction and certification of unitary matrices and tight
frames over sums of rational multiples of square roots."""

from exactframes.errors import (BlockFormError, CombineModeError,
                                DimensionError, DomainError,
                                ExactFramesError, ParseError,
                                PreconditionError, ResourceLimitError,
                                TableValidationError)
from exactframes.radicals import (ONE, ZERO, RadicalScalar, format_scalar,
                                  make, parse_scalar, sqrt_rational)
from exactframes.matrices import (ExactMatrix, block_diag, hstack, vstack)
from exactframes.verify import (MatrixProperty, VerifyReport, Witness,
                                check_equal_norm_rows,
                                check_hyperplane_basis,
                                check_orthogonal_columns,
                                check_tight_frame, check_unbiased_pair,
                                check_unitary)
from exactframes.hyperplane import (HyperplaneBasis, TopRowMode, base_case,
                                    build, combine, predicted_sparsity)
from exactframes.unitary import (BlockForm, WeaveCoefficients, block_pair,
                                 constant_first_row, constant_two_rows,
                                 mub_r4, third_case,
                                 two_constant_block_example,
                                 two_constant_diag, weave)
from exactframes.two_tight import (TwoRowTable, abcd_outline, ap_two_tight,
                                   iterate_two_tight, make_two_row_table,
                                   sign_matrix, weight_in_front)
from exactframes.paving import (PavingResult, gram_projection,
                                paving_epsilon, weight_profile)
from exactframes.io import FORMATS, deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "BlockForm", "BlockFormError", "CombineModeError", "DimensionError",
    "DomainError", "ExactFramesError", "ExactMatrix", "FORMATS",
    "HyperplaneBasis", "MatrixProperty", "ONE", "ParseError",
    "PavingResult", "PreconditionError", "RadicalScalar",
    "ResourceLimitError", "TableValidationError", "TopRowMode",
    "TwoRowTable", "VerifyReport", "Witness", "WeaveCoefficients", "ZERO",
    "abcd_outline", "ap_two_tight", "base_case", "block_diag", "block_pair",
    "build", "check_equal_norm_rows", "check_hyperplane_basis",
    "check_orthogonal_columns", "check_tight_frame", "check_unbiased_pair",
    "check_unitary", "combine", "constant_first_row", "constant_two_rows",
    "deserialize", "format_scalar", "gram_projection", "hstack",
    "iterate_two_tight", "make",
    "make_two_row_table", "mub_r4", "parse_scalar", "paving_epsilon",
    "predicted_sparsity", "serialize", "sign_matrix", "sqrt_rational",
    "third_case", "two_constant_block_example", "two_constant_diag",
    "vstack", "weave", "weight_in_front", "weight_profile",
]
