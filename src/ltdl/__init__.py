"""ltdl: exact Lubin-Tate deformation charts and the Deligne-Lusztig
correspondence for GL_n(F_q), at verification scale.

Everything is computed with exact arithmetic: finite fields, truncated Witt
rings, truncated multivariate power series, and cyclotomic character values.
The CLI (`ltdl verify-all`) turns every identity that is checkable at desk
scale into a pass/fail report.
"""

__version__ = "0.1.0"

from .depth0 import (
    blowup_chart,
    build_P,
    build_P_a,
    iterated_chart,
    special_fiber_components,
    stratum_membership,
    un_special_fiber,
)
from .dl_variety import dl_equation, dl_points, per_zeta_counts
from .errors import (
    BudgetError,
    IntegralityError,
    ParameterError,
    VerificationError,
)
from .ffield import FieldDesc, ff_make, field_for_order
from .formal_modules import FormalModule, lubin_tate_module
from .gl_characters import (
    CorrespondenceData,
    CoxeterTorus,
    GLGroup,
    correspondence_report,
    dixon_table,
    is_cuspidal,
    steinberg,
)
from .series import SeriesRing, TruncatedSeries
from .witt import witt_ring

__all__ = [
    "__version__",
    "BudgetError", "CorrespondenceData",
    "CoxeterTorus", "FieldDesc",
    "FormalModule", "GLGroup", "IntegralityError",
    "ParameterError", "SeriesRing",
    "TruncatedSeries", "VerificationError",
    "blowup_chart", "build_P", "build_P_a",
    "correspondence_report", "dixon_table",
    "dl_equation", "dl_points", "ff_make",
    "field_for_order", "is_cuspidal",
    "iterated_chart", "lubin_tate_module", "per_zeta_counts", "special_fiber_components",
    "steinberg", "stratum_membership", "un_special_fiber",
    "witt_ring",
]
