"""Capacities (non-additive measures) on finite criteria sets.

Value tables over the subset lattice, the Mobius-family transforms, the
Choquet / symmetric / multilinear integral extensions, interaction and
Shapley indices, an executable axiom-check harness, and a small
aggregation model for ranking acts on named utility scales.

The package namespace is the ``__all__`` of each module below.
"""

from .axioms import *
from .errors import *
from .integrals import *
from .interaction import *
from .model import *
from .set_function import *

__version__ = "0.1.0"
