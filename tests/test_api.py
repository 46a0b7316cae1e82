import ast
import os
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


def test_no_module_imports_a_private_name():
    # a name with a leading underscore belongs to its module: another module that
    # needs it means the decision it encodes lives in two places
    package = os.path.dirname(bjorling.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            found += ["%s: from %s%s import %s" % (name, "." * node.level, node.module or "",
                                                   alias.name)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level > 0
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
