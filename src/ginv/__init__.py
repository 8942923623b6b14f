"""Generalized inverses with prescribed idempotents, and their perturbation
theory, over complex matrices.

The core object is the inverse b of a square matrix a whose column space and
null space are prescribed by a pair of idempotents (p, q): b satisfies
b a b = b with col(b) = col(p) and null(b) = col(q). The package computes
these inverses, decides existence, classifies how strict a candidate is,
and verifies a family of perturbation statements about them: update
formulas, stability characterizations, and quantitative error bounds. A
seeded harness runs those checks over random ensembles, and a CLI exposes
the whole thing on JSON files.
"""

from .errors import *
from .exact import *
from .gen_inverse import *
from .harness import *
from .idempotents import *
from .linalg import *
from .perturbation import *
from .randomstream import *
from .subspaces import *

__version__ = "0.1.0"
