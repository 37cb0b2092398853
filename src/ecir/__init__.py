"""Event-based continuous intensity recovery.

A blurry frame plus the events recorded during its exposure determine, per
pixel, a polynomial intensity curve: keypoints aligned with the events pin
the derivative, integration recovers the curve, and the blurry measurement
fixes the constant. The package bundles the representation, an event
simulator for synthesizing test data, least-squares fitting, the analytic
double-integral baseline, residual-flow refinement, and quality metrics.

Each module's ``__all__`` is the one list of its public names. The package
re-exports every one of them, and its own ``__all__`` is their union.
File formats (:mod:`ecir.io`) and the command line (:mod:`ecir.cli`) are
imported by name.
"""

from . import fitting, keypoints, metrics, refinement, representation, simulation, types
from .fitting import *  # noqa: F403
from .keypoints import *  # noqa: F403
from .metrics import *  # noqa: F403
from .refinement import *  # noqa: F403
from .representation import *  # noqa: F403
from .simulation import *  # noqa: F403
from .types import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (fitting, keypoints, metrics, refinement, representation, simulation, types)
    for name in module.__all__
)
