"""triangle_opt: a similar-triangles solver family for composite convex
optimization, with exact-L, strongly convex, adaptive, universal, and
stochastic-universal modes, restart/regularization meta-strategies, and a
benchmark harness that grades runs against the methods' guarantees.

Each module's ``__all__`` owns its public names; the package re-exports them
and joins the lists into its own ``__all__``."""

from . import errors, harness, meta_strategies, oracles, prox_geometry, solvers, traces, zoo
from .errors import *
from .harness import *
from .meta_strategies import *
from .oracles import *
from .prox_geometry import *
from .solvers import *
from .traces import *
from .zoo import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, oracles, prox_geometry, traces, zoo, solvers, harness,
                               meta_strategies)
           for name in module.__all__]
