import types

import bjorling

# the package's public names: what the CLI, the benchmark and the README use.
# A name that only tests call belongs in tests/oracles.py, not here.
PUBLIC_NAMES = [
    "DegeneracyReport",
    "DegenerateMetric",
    "EpitrochoidParams",
    "InvalidCurveParameters",
    "NonConvergent",
    "OrderRow",
    "OrderTable",
    "PatchGrid",
    "PlanarCurve",
    "QuadratureFailure",
    "SingularityOnPath",
    "Strip",
    "StripTooWide",
    "SurfaceMesh",
    "TrigPolySeries",
    "VModel",
    "VerificationReport",
    "WeierstrassData",
    "clip_halfspace",
    "curve_from_config",
    "data_from_curve",
    "degeneracy_points",
    "expected_orders",
    "export_csv",
    "export_obj",
    "export_ply",
    "find_strip",
    "geodesic_residual",
    "load_obj",
    "make_circle",
    "make_cycloid",
    "make_epitrochoid",
    "make_parabola",
    "mean_curvature_residual",
    "mesh_area",
    "obstruction_report",
    "order_estimate",
    "order_table",
    "period_residual",
    "phi",
    "sample_mesh",
    "singularity_scan",
    "surface_patch",
    "surface_point",
    "symmetry_residual",
    "v_model",
    "verification_report",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(bjorling).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert exported == PUBLIC_NAMES
