"""Exact-arithmetic toolkit for the algebra of knot S-equivalence.

Seifert matrices and their abelian invariants, unimodular congruence and
enlargement moves, symplectic standardization and the disk-band form,
pure-braid delta-move calculus, doubled string-link normalization, and a
braid-closure front end cross-validated by an independent reduced-Burau
oracle.  Every computation is exact; there is no floating point anywhere.

The package exports every name in every module's __all__, and those
lists are the only declaration of the public API.
"""

from .intlin import *
from .laurent import *
from .seifert import *
from .purebraid import *
from .stringlink import *
from .standardform import *
from .braidclosure import *

__version__ = "0.1.0"
