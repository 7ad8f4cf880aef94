"""Exact Tevelev degrees for Fano targets of Picard rank one.

Closed-form virtual counts for projective spaces, low-degree
hypersurfaces, and quadrics; an independent quantum-cohomology
evaluation for projective space; Schubert calculus on Gr(2, d+1) for
geometric counts on the line; enumerativity certification; and a
very-free-curve existence check in positive characteristic. All
arithmetic is exact integer/rational arithmetic.
"""

from .arith import *
from .certify import *
from .closed_forms import *
from .errors import *
from .quantum import *
from .schubert import *
from .targets import *

__version__ = "0.5.0"
