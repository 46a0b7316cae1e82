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


def continue_sqrt(f, z_from, z_to, w_from, steps):
    """Oracle: a square root of f continued along straight segments in ``steps``
    equal steps, every entry of the broadcast z_from, z_to, w_from together.

    w_from^2 = f(z_from), and f maps an array of points to an array of values.
    Each step takes the roots at its midpoint and at its end with the sign of
    least turn from the root before (Re p > 0 for p = root * conj(previous)), and
    fails the test where that turn is pi/4 or more (|Im p| >= |Re p|): the step
    is too coarse to tell the sheets apart, and nothing halves it.
    """
    shape = np.broadcast(z_from, z_to, w_from).shape
    a, b, w = (np.array(np.broadcast_to(v, shape), dtype=complex).ravel()
               for v in (z_from, z_to, w_from))
    prev, n = a, a.size
    for j in range(1, steps + 1):
        nxt = b if j == steps else a + (b - a) * (j / steps)
        roots = np.sqrt(np.asarray(f(np.concatenate([0.5 * (prev + nxt), nxt])), dtype=complex))
        for root in (roots[:n], roots[n:]):
            p = root * np.conj(w)
            if not np.all(np.abs(p.imag) < np.abs(p.real)):
                pytest.fail("a continuation step turns the root by pi/4 or more")
            w = np.where(p.real < 0, -root, root)
        prev = nxt
    return w.reshape(shape)


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
