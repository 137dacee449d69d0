"""codequiv: equivalence and automorphism groups of q-ary linear codes.

Codes are handled through their multisets of projective points: each
generator-matrix column is a point of PG(k-1, q), and equivalence questions
reduce to colored-binary-matrix isomorphism via point/hyperplane support
structures, decided by a canonical-labeling search (on the dual code when
2k > n, which shrinks PG(k-1, q) to PG(n-k-1, q)).  Explicit monomial
witnesses (permutation, scalings, field automorphism, basis change) are
recovered by lifting coordinate permutations along the support graph of the
second code's reduced row echelon form.
"""

from .batch import ClassifyResult, CodeClass, classify
from .bmcanon import (CanonResult, ColoredBinaryMatrix, canonical_form,
                      is_automorphism, is_isomorphic, permute_columns,
                      serialize)
from .codefile import CodeFileError, emit_codes, parse_codes
from .equiv import (AutomorphismReport, EquivalenceWitness, MonomialTransform,
                    Verdict, build_ceimpg_matrix, build_shortened,
                    ceimpg_equiv, cesimpg_equiv, code_aut_group,
                    decide_equivalence, verify_witness)
from .errors import BudgetExceededError, ResourceLimitError
from .gfield import FieldSpec, field, normalize_vector
from .gfmatrix import (GFMatrix, RREFResult, inverse, mat_mul, nullspace_basis,
                       rank, rref)
from .lincode import (CharacteristicVector, GeneratorMatrix,
                      characteristic_vector, code_from_chi,
                      min_distance_hyperplane, random_code)
from .projgeom import (PointTable, incidence, point_table, simplex_generator,
                       theta)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismReport", "BudgetExceededError", "CanonResult",
    "CharacteristicVector", "ClassifyResult", "CodeClass", "CodeFileError",
    "ColoredBinaryMatrix", "EquivalenceWitness", "FieldSpec", "GFMatrix",
    "GeneratorMatrix", "MonomialTransform", "PointTable",
    "RREFResult", "ResourceLimitError", "Verdict", "build_ceimpg_matrix",
    "build_shortened", "canonical_form", "ceimpg_equiv", "cesimpg_equiv",
    "characteristic_vector", "classify", "code_aut_group", "code_from_chi",
    "decide_equivalence", "emit_codes", "field", "incidence", "inverse",
    "is_automorphism", "is_isomorphic", "mat_mul", "min_distance_hyperplane",
    "normalize_vector", "nullspace_basis", "parse_codes", "permute_columns",
    "point_table", "random_code", "rank", "rref", "serialize",
    "simplex_generator", "theta", "verify_witness",
]
