import math

import numpy as np
import pytest

from bjorling.curves import (
    EpitrochoidParams,
    make_circle,
    make_cycloid,
    make_epitrochoid,
    make_parabola,
)

# canonical epitrochoid test parameters, lambda chosen away from 1/(k+1)
EPI_PARAMS = {1: 0.6, 2: 0.5, 3: 0.6, 4: 0.4}


def epi(k, lam=None):
    return make_epitrochoid(EpitrochoidParams(k=k, lam=EPI_PARAMS[k] if lam is None else lam))


def metric_length_by_quadrature(k, lam, n=32):
    """Length of t = 0, s in [0, s0] in the epitrochoid surface metric.

    An independent oracle for intrinsic_distance: n-point Gauss-Legendre
    quadrature of sqrt(E(is)), E = (|x'|^2 + |y'|^2 + |x'^2 + y'^2|)/2, with x'
    and y' written out from the epitrochoid formula.
    """
    a = lam * (k + 1)
    s0 = abs(math.log(a)) / (k + 1)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    z = 0.5j * s0 * (nodes + 1.0)
    dx = (k + 2) * (-np.sin(z) + a * np.sin((k + 2) * z))
    dy = (k + 2) * (np.cos(z) - a * np.cos((k + 2) * z))
    dens = 0.5 * (np.abs(dx) ** 2 + np.abs(dy) ** 2 + np.abs(dx * dx + dy * dy))
    return 0.5 * s0 * float(weights @ np.sqrt(dens))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=["circle", "cycloid", "parabola", "epi1", "epi2", "epi3", "epi4"])
def test_curve(request):
    name = request.param
    if name == "circle":
        return make_circle()
    if name == "cycloid":
        return make_cycloid()
    if name == "parabola":
        return make_parabola()
    return epi(int(name[-1]))
