"""Minimal surfaces through planar geodesics.

Construct the Schwarz solution of the Björling problem for real-analytic
planar curves, extract Weierstrass data, and analyze the epitrochoid family:
degeneration points of the induced metric, zero/pole order tables on the
hyperelliptic model, and the finite-distance obstruction to completeness.
"""

from .analysis import (
    DegeneracyReport,
    NonConvergent,
    OrderRow,
    OrderTable,
    VModel,
    degeneracy_points,
    expected_orders,
    obstruction_report,
    order_estimate,
    order_table,
    v_model,
)
from .continuation import (
    SingularityOnPath,
    Strip,
    find_strip,
    singularity_scan,
)
from .curves import (
    EpitrochoidParams,
    InvalidCurveParameters,
    PlanarCurve,
    TrigPolySeries,
    curve_from_config,
    make_circle,
    make_cycloid,
    make_epitrochoid,
    make_parabola,
)
from .meshing import (
    SurfaceMesh,
    clip_halfspace,
    export_csv,
    export_obj,
    export_ply,
    load_obj,
    mesh_area,
    sample_mesh,
)
from .schwarz import (
    PatchGrid,
    QuadratureFailure,
    StripTooWide,
    WeierstrassData,
    data_from_curve,
    period_residual,
    phi,
    surface_patch,
    surface_point,
)
from .verify import (
    DegenerateMetric,
    VerificationReport,
    geodesic_residual,
    mean_curvature_residual,
    symmetry_residual,
    verification_report,
)

__version__ = "0.1.0"
