"""Exact-arithmetic toolkit for the algebra of knot S-equivalence.

Seifert matrices and their abelian invariants, unimodular congruence and
enlargement moves, symplectic standardization and the disk-band form,
pure-braid delta-move calculus, doubled string-link normalization, and a
braid-closure front end cross-validated by an independent reduced-Burau
oracle.  Every computation is exact; there is no floating point anywhere.
"""

from .intlin import (
    IntMatrix,
    InternalCheckError,
    congruent,
    det,
    det_or_left_kernel,
    is_unimodular,
    signature,
    signature_and_det,
    skew_standardize,
    standard_symplectic,
    transpose_pencil_det,
)
from .laurent import LaurentPoly, format_laurent, normalize_knot_polynomial, parse_laurent
from .seifert import (
    Invariants,
    SearchBudget,
    SearchResult,
    SeifertMatrix,
    alexander,
    alexander_raw,
    arf,
    bounded_sequiv_search,
    column_enlarge,
    invariants,
    is_alexander_trivial,
    knot_determinant,
    knot_signature,
    reduce_fully,
    row_enlarge,
    try_reduce,
    validate,
)
from .purebraid import (
    LinkingMatrix,
    PureBraidWord,
    delta_equivalent,
    delta_relator,
    insert_relator,
    is_delta_trivial,
    linking_matrix,
)
from .stringlink import (
    DoubledStringLink,
    delta_equivalent_links,
    normalize_linking,
    orientation_sign,
    pairwise_linking,
    position_of,
    stabilizing_multiply,
    strand_label,
)
from .standardform import (
    DiskBandForm,
    from_disk_band,
    is_standardized,
    standardization_witness,
    standardize,
    to_disk_band,
    to_string_link,
)
from .braidclosure import (
    ArtinBraidWord,
    burau_alexander,
    closure_permutation,
    is_knot_closure,
    knot_corpus,
    seifert_matrix,
)

__version__ = "0.1.0"
