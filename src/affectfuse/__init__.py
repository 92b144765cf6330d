"""affectfuse: continuous emotion annotation fusion and sequence baselines.

The package covers the full path from raw rater traces to evaluated models:
rater alignment and weighting (:mod:`affectfuse.align`, :mod:`affectfuse.fuse`),
physiology-assisted fusion, discretization of continuous gold standards into
sentiment classes (:mod:`affectfuse.discretize`), lightweight sequence models
trained with a concordance loss (:mod:`affectfuse.seqmodel`), late fusion of
prediction streams (:mod:`affectfuse.latefusion`), file formats and windowing
(:mod:`affectfuse.dataio`), and a synthetic corpus generator
(:mod:`affectfuse.synth`). The ``affectfuse`` command wires these together.

Each module's ``__all__`` is its public API; the package re-exports all of them.
"""

from . import align, core, dataio, discretize, errors, fuse, latefusion, metrics, seqmodel, synth
from .align import *
from .core import *
from .dataio import *
from .discretize import *
from .errors import *
from .fuse import *
from .latefusion import *
from .metrics import *
from .seqmodel import *
from .synth import *

__version__ = "0.1.0"

_LIBRARY = (core, align, fuse, metrics, dataio, discretize, seqmodel, latefusion, synth, errors)
__all__ = ["__version__", *(name for module in _LIBRARY for name in module.__all__)]
