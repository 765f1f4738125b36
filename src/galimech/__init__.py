"""Covariant Galilean mechanics on coordinate charts.

Derives the geometric structure of a chart model (connections, the
cosymplectic two-form, potential one-forms and their contact splitting),
integrates the law of motion, tests infinitesimal symmetries numerically,
and computes conserved charges, momentum maps and their bracket algebra.
"""

from .fields import Chart, Field
from .units import ScaledScalar, UnitDim, UnitMismatchError
from .geometry import (
    EMField,
    Metric,
    Observer,
    PhaseTwoForm,
    PoincareCartan,
    SingularMetricError,
    minimal_coupling,
    poincare_cartan,
)
from .symmetry import (
    LieAlgebraAction,
    MomentumMapEntry,
    SpacetimeVectorField,
    SpecialQuadratic,
)
from .dynamics import Trajectory, integrate
from .catalog import Model, load_model, catalog_names

__all__ = [
    "Chart",
    "Field",
    "ScaledScalar",
    "UnitDim",
    "UnitMismatchError",
    "EMField",
    "Metric",
    "Observer",
    "PhaseTwoForm",
    "PoincareCartan",
    "SingularMetricError",
    "minimal_coupling",
    "poincare_cartan",
    "LieAlgebraAction",
    "MomentumMapEntry",
    "SpacetimeVectorField",
    "SpecialQuadratic",
    "Trajectory",
    "integrate",
    "Model",
    "load_model",
    "catalog_names",
]

__version__ = "0.1.0"
