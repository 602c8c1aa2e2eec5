"""Exact dimension counts for regularizable cycles of Selberg-type twisted homology.

The public surface mirrors the module layout:

* :mod:`selbergdim.exactnum`  -- exact rationals, Pochhammer, binomials;
* :mod:`selbergdim.hyper`     -- terminating 3F2 and classical identities;
* :mod:`selbergdim.dims`      -- the dimension engine (D, K, I by
  independent routes) and table generation;
* :mod:`selbergdim.resonance` -- the resonance classifier;
* :mod:`selbergdim.suites`    -- seeded/exhaustive verification suites;
* :mod:`selbergdim.cli`       -- the ``selbergdim`` command.

Each module's ``__all__`` is its public surface, and the package re-exports
exactly those names, in module order, plus ``__version__``. A name a module
keeps out of its ``__all__`` stays importable from that module.
"""

from . import dims, exactnum, hyper, resonance, suites
from .dims import *
from .exactnum import *
from .hyper import *
from .resonance import *
from .suites import *

__version__ = "0.1.0"

__all__ = [
    *exactnum.__all__,
    *hyper.__all__,
    *dims.__all__,
    *resonance.__all__,
    *suites.__all__,
    "__version__",
]
