"""Algebraic v-chart model of the epitrochoid surface and its degeneration.

Substituting v = e^{iz} (and rotating the surface by -pi/2 about the x3-axis)
turns the strip data into functions on the hyperelliptic double cover

    w^2 = v^e (1 - a v^{k+1})(a - v^{k+1}),   e = 1 - k mod 2,   genus k + e

with a = lambda (k+1), where

    g   = -w v^p / (v^{k+1} - a),   p = (k+3) // 2
    eta = -i (k+2) (v^{k+1} - a) / v^{k+3}  dv.

Parity enters only through e: the cover is ramified over v = 0 and infinity
iff e = 1.  One table of point classes (``_point_classes``) states which points
are ramified and how many copies each has, for the order table and the divisor
degree check alike.

The metric density (1+|g|^2)^2 |eta|^2 vanishes quadratically (in the local
coordinate w) at every root of v^{k+1} = a and v^{k+1} = 1/a: the surface
fails to immerse there, at finite intrinsic distance from the geodesic.

Orders of zeros and poles are counted numerically by the argument principle,
never read off symbolically: each is the winding number of a single-valued
square (g^2, or eta^2 written in the local coordinate) on one small loop.  The
loops are counted in batches, one array of (loops x samples) per group of points
that share ``ramified`` and ``at_infinity``: g^2 and eta^2 come from one power
v^{k+1} on that array, and each row is checked, and its loop doubled, on its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import EpitrochoidParams, InvalidCurveParameters, make_epitrochoid
from .weierstrass import data_from_curve

ORDER_MAX_SAMPLES = 1 << 16


class NonConvergent(ArithmeticError):
    """A winding count failed to give an order (see ``order_estimate``)."""


@dataclass(frozen=True)
class VModel:
    """Hyperelliptic model (v, w) of a single-wrapped epitrochoid surface."""

    k: int
    lam: float

    @cached_property
    def a(self) -> float:
        return self.lam * (self.k + 1)

    @cached_property
    def e(self) -> int:
        """Exponent of v in w^2: 1 for even k, 0 for odd k."""
        return 1 - self.k % 2

    @property
    def even(self) -> bool:
        return self.e == 1

    @cached_property
    def p_exponent(self) -> int:
        return (self.k + 3) // 2

    @cached_property
    def loop_radii(self) -> np.ndarray:
        """r0 of ``_loop_orders`` at each of (0,) + degeneracy_points(self), by one matrix."""
        specials = np.array((0j,) + degeneracy_points(self))
        gaps = np.abs(specials[:, None] - specials)
        gaps.flat[::specials.size + 1] = np.inf  # the diagonal
        radii = 0.05 * gaps.min(axis=1)
        radii[0] *= 2.0  # a tenth at the origin: 2 fl(0.05 m) = fl(0.1 m)
        return radii

    @property
    def genus(self) -> int:
        return self.k + self.e

    @property
    def w_squared_degree(self) -> int:
        return 2 * self.k + 2 + self.e

    @property
    def eta_constant(self) -> complex:
        return -1j * (self.k + 2)

    def punctures(self) -> tuple[str, ...]:
        origin = ("(0,0)",) if self.e else ("(0,+sqrt(a))", "(0,-sqrt(a))")
        return origin + ("(inf,inf)",)

    def w_squared(self, v):
        return self._w_squared(v, v ** (self.k + 1))

    def _w_squared(self, v, vk):
        """w^2 at v with vk = v^{k+1}."""
        return v**self.e * ((1.0 - self.a * vk) * (self.a - vk))

    def w_squared_prime(self, v):
        return self._w_squared_prime(v, v ** (self.k + 1), (self.k + 1) * v**self.k)

    def _w_squared_prime(self, v, vk, vk_d):
        """(w^2)' at v with vk = v^{k+1} and vk_d = (k+1) v^k."""
        a, e = self.a, self.e
        q = 1.0 - a * vk
        r = a - vk
        return e * q * r + v**e * ((-a * vk_d) * r + q * (-vk_d))

    def _resolved_numerator(self, v):
        """(d, alt, A) with d = v^{k+1} - a, alt = 1 - a v^{k+1} and the numerator
        A = v^{p+e} alt of the pole-resolved g = A / w, None where |d| > |alt|."""
        vk = v ** (self.k + 1)
        d, alt = vk - self.a, 1.0 - self.a * vk
        if abs(d) <= abs(alt):
            return d, alt, v ** (self.p_exponent + self.e) * alt
        return d, alt, None

    def g(self, v, w):
        """Gauss map on the surface; switches to the pole-resolved form near w = 0.

        On the curve v^{k+1} - a = -w^2 / (v^e (1 - a v^{k+1})), so near the
        a-family branch points g = v^{p+e} (1 - a v^{k+1}) / w, with the
        vanishing denominator eliminated.
        """
        d, _, A = self._resolved_numerator(v)
        if A is not None:
            return A / w
        return -w * v**self.p_exponent / d

    def eta_coeff(self, v):
        """eta = eta_coeff(v) dv."""
        return self._eta_coeff(v ** (self.k + 1), v ** (self.k + 3))

    def _eta_coeff(self, vk, vk3):
        """eta_coeff with vk = v^{k+1} and vk3 = v^{k+3}."""
        return self.eta_constant * (vk - self.a) / vk3

    def loop_squares(self, v, at_infinity: bool, ramified: bool):
        """g^2 and (eta/dl)^2 at v, stacked on a new leading axis, from one power
        v^{k+1} (slow in numpy from 100 on); neither takes a branch of w.

        g^2 = w^2 (v^p / (v^{k+1} - a))^2.  (eta/dl)^2 = eta_coeff(v)^2 (dv/dl)^2 in
        the local coordinate l: v - v0, or u = 1/v at infinity with (dv/du)^2 = v^4;
        where ramified, the square root of that coordinate, with (dv/dw)^2 = 4p/p'^2
        (p = w^2) and (du/dtau)^2 = 4/v.  v^k and v^{k+3} come from v^{k+1}."""
        vk = v ** (self.k + 1)
        w2 = self._w_squared(v, vk)
        g2 = w2 * (v**self.p_exponent / (vk - self.a)) ** 2
        eta2 = self._eta_coeff(vk, vk * v * v) ** 2
        if at_infinity:
            eta2 = eta2 * v**4 * (4.0 / v if ramified else 1.0)
        elif ramified:
            p_prime = self._w_squared_prime(v, vk, (self.k + 1) * vk / v)
            eta2 = eta2 * (4.0 * (w2 / p_prime) / p_prime)
        return np.stack((g2, eta2))

    def w_on_geodesic(self, t):
        """w at v = e^{it}, continued along the unit circle from w(0) = -i|1 - a|.

        There a - v^{k+1} = -v^{k+1} conj(1 - a v^{k+1}), so w^2 = -v^{k+1+e}
        |1 - a v^{k+1}|^2, and k+1+e is even: w = -i e^{i(k+1+e)t/2} |1 - a e^{i(k+1)t}|.
        """
        return (-1j * np.exp(0.5j * (self.k + 1 + self.e) * t)
                * np.abs(1.0 - self.a * np.exp(1j * (self.k + 1) * t)))

    def metric_density(self, v, w) -> float:
        """Conformal factor of (1/4)(1+|g|^2)^2 eta etabar in the local coordinate.

        At branch points (w = 0) the local coordinate is w and |dv/dw| =
        |2w / p'(v)| supplies the quadratic vanishing; the a-family 0/0 is
        cancelled algebraically via the curve relation before evaluating.
        """
        p_prime = self.w_squared_prime(v)
        d, alt, A = self._resolved_numerator(v)
        if A is not None:
            # a-family-safe form: g = A/w, eta dv/dw = -2 Ceta w^3 / (...)
            pref = 2.0 * abs(self.eta_constant) / abs(
                v ** (self.k + 3 + self.e) * alt * p_prime)
            return 0.25 * (abs(w) * pref * (abs(w) ** 2 + abs(A) ** 2)) ** 2
        gv = -w * v**self.p_exponent / d
        eta_tau = self.eta_coeff(v) * (2.0 * w / p_prime)
        return 0.25 * (1.0 + abs(gv) ** 2) ** 2 * abs(eta_tau) ** 2


def v_model(k: int, lam: float) -> VModel:
    """Validated v-chart model; rejects the cusped case a = 1 and any (k, lam) whose
    order-table loops leave float range.  Their largest value is eta's square on the
    origin's loop |v| = r = 0.1 min(a, 1/a)^(1/(k+1)), (k+2)^2 a r^-(2k+5) max(a/r, 4)."""
    EpitrochoidParams(k=k, lam=lam)  # reuses the curve-side validation
    log_a = math.log(lam * (k + 1))
    log_r = math.log(0.1) - abs(log_a) / (k + 1)
    log_top = 2.0 * math.log(k + 2) + log_a - (2 * k + 5) * log_r + max(log_a - log_r, math.log(4))
    if log_top >= math.log(np.finfo(float).max):
        raise InvalidCurveParameters("k=%d, lambda=%g: order-table loops overflow" % (k, lam))
    return VModel(k=k, lam=lam)


def degeneracy_points(model: VModel) -> tuple[complex, ...]:
    """All 2(k+1) roots of v^{k+1} = a and v^{k+1} = 1/a.

    The real positive roots are the canonical representatives; the full root
    sets are the complete degeneration loci because g and eta depend on v
    through v^{k+1} and a monomial factor.
    """
    k = model.k
    out = []
    for radius in (model.a ** (1.0 / (k + 1)), model.a ** (-1.0 / (k + 1))):
        for j in range(k + 1):
            out.append(radius * cmath.exp(2j * math.pi * j / (k + 1)))
    return tuple(out)


def order_estimate(fn, centers, ramified: bool, r0, samples: int) -> np.ndarray:
    """Orders of f at a batch of points, each from the winding of F = f^2 on its own
    loop: |v - centers[j]| = r0[j], or |1/v| = r0[j] if centers is None (at infinity).

    fn maps the loops' samples v, shape (loops, samples), to F in the local
    coordinate: of that shape, or with leading axes for several functions on the
    same loops.  Each row (one F on one loop) is one winding count, and the orders
    come back in F's shape less its samples axis.  By the argument principle F
    winds once per order in the chart coordinate: the order of f where the points
    are ramified (that coordinate is the local one squared), twice it where not.
    The loops start at ``samples`` points, which must exceed 8 times the largest
    winding.  A row is settled once no step turns by pi/4 or more: the ratio p of F
    at one sample to F at the one before turns by less than pi/4 exactly when
    |Im p| < Re p.  Only the loops with a row still unsettled are evaluated again,
    at twice the samples, and only those rows are checked, so each row gets the
    order its loop alone gives.  Raises NonConvergent when an unsettled row's F is
    non-finite or zero on its loop, past ORDER_MAX_SAMPLES samples, or on an odd
    winding at an unramified point.
    """
    r0 = np.asarray(r0, dtype=float)
    centers = None if centers is None else np.asarray(centers, dtype=complex)
    todo = np.arange(r0.size)  # the loops with a row still unsettled
    orders = None
    while samples <= ORDER_MAX_SAMPLES:
        c = r0[todo, None] * np.exp(2j * math.pi * np.arange(samples) / samples)
        vals = np.asarray(fn(1.0 / c if centers is None else centers[todo, None] + c),
                          dtype=complex)
        if orders is None:
            shape = vals.shape[:-1]
            orders = np.zeros(shape, dtype=int).reshape(-1, r0.size)  # (functions, loops)
            unsettled = np.ones(orders.shape, dtype=bool)
        fun, loop = np.nonzero(unsettled[:, todo])
        rows = vals.reshape(-1, todo.size, samples)[fun, loop]
        loop = todo[loop]
        bad = ~np.all(np.isfinite(rows) & (rows != 0), axis=-1)
        if np.any(bad):
            raise NonConvergent("square not finite and nonzero on the loop of radius %g"
                                % r0[loop[np.argmax(bad)]])
        steps = np.roll(rows, -1, axis=-1) / rows
        done = np.all(np.abs(steps.imag) < steps.real, axis=-1)
        winding = np.round(np.sum(np.angle(steps[done]), axis=-1) / (2.0 * math.pi))
        winding = winding.astype(int)
        odd = winding % 2 == 1
        if np.any(odd) and not ramified:
            raise NonConvergent("odd winding %d at an unramified point" % winding[odd][0])
        orders[fun[done], loop[done]] = winding if ramified else winding // 2
        unsettled[fun[done], loop[done]] = False
        todo = np.flatnonzero(np.any(unsettled, axis=0))
        if todo.size == 0:
            return orders.reshape(shape)
        samples *= 2
    raise NonConvergent("steps still turn by pi/4 or more at %d samples" % ORDER_MAX_SAMPLES)


@dataclass(frozen=True)
class OrderRow:
    point: str
    g_order: int
    eta_order: int
    flagged: bool = False

    def to_json_dict(self) -> dict:
        return {"point": self.point, "g_order": self.g_order,
                "eta_order": self.eta_order, "flagged": self.flagged}


@dataclass(frozen=True)
class OrderTable:
    k: int
    lam: float
    rows: tuple[OrderRow, ...]

    def to_json_dict(self) -> dict:
        return {"k": self.k, "lambda": self.lam,
                "rows": [r.to_json_dict() for r in self.rows]}


LABEL_ORIGIN_EVEN = "(0,0)"
LABEL_ORIGIN_ODD = "(0,+-sqrt(a))"
LABEL_BRANCH_A = "(a^(1/(k+1)),0)"
LABEL_BRANCH_INV_A = "(a^(-1/(k+1)),0)"
LABEL_INFINITY = "(inf,inf)"


def expected_orders(k: int) -> dict:
    """Parametric golden entries of the zero/pole tables.

    ``None`` marks the odd-k eta order at infinity, which the source table
    leaves blank; the computed value is emitted flagged, not asserted.
    """
    if k % 2 == 0:
        return {
            LABEL_ORIGIN_EVEN: (k + 3, -(2 * k + 5)),
            LABEL_BRANCH_A: (-1, 3),
            LABEL_BRANCH_INV_A: (1, 1),
            LABEL_INFINITY: (-(k + 3), 1),
        }
    return {
        LABEL_ORIGIN_ODD: ((k + 3) // 2, -(k + 3)),
        LABEL_BRANCH_A: (-1, 3),
        LABEL_BRANCH_INV_A: (1, 1),
        LABEL_INFINITY: (-((k + 3) // 2), None),
    }


def _point_classes(model: VModel) -> tuple:
    """Rows (label, i, ramified, copies): the class's point is entry i of
    (0,) + degeneracy_points(model), i None for infinity.  The origin and
    infinity are ramified iff e = 1, with 2 - e points over each; the roots of
    v^{k+1} = a and of v^{k+1} = 1/a are k+1 branch points each."""
    k, e = model.k, model.e
    return (
        (LABEL_ORIGIN_EVEN if e else LABEL_ORIGIN_ODD, 0, e == 1, 2 - e),
        (LABEL_BRANCH_A, 1, True, k + 1),
        (LABEL_BRANCH_INV_A, k + 2, True, k + 1),
        (LABEL_INFINITY, None, e == 1, 2 - e),
    )


def _loop_orders(model: VModel, specials: tuple, points, ramified: bool) -> np.ndarray:
    """Orders (ord g row, ord eta row) at the given entries of specials = (0,) +
    degeneracy_points(model), or at infinity if points is (None,), all ramified or
    all not, by one batched ``order_estimate`` on ``VModel.loop_squares``.

    The loops start at 32(k+3) samples, above 8 times the largest winding 2k+6.  r0 is
    a tenth of the distance to the nearest other special point (in u = 1/v at
    infinity), a twentieth at branch points, where eta's square also has poles at the
    zeros of (w^2)': they come within 0.099 of that distance (k = 6, a far from 1).
    """
    at_infinity = points[0] is None
    if at_infinity:
        centers, r0 = None, [0.1 / max(abs(p) for p in specials)]
    else:
        centers, r0 = [specials[i] for i in points], model.loop_radii[list(points)]
    return order_estimate(lambda v: model.loop_squares(v, at_infinity, ramified),
                          centers, ramified, r0, 32 * (model.k + 3))


def _batches(model: VModel) -> dict:
    """{(ramified, at infinity): [(label, i), ...]}: the classes of ``_point_classes``
    whose loops one ``_loop_orders`` call counts together."""
    out: dict = {}
    for label, i, ramified, _ in _point_classes(model):
        out.setdefault((ramified, i is None), []).append((label, i))
    return out


def order_table(model: VModel) -> OrderTable:
    """Orders at the punctures, degeneration points and infinity, one batch of loops
    per ``_batches`` entry: at most three."""
    specials = (0j,) + degeneracy_points(model)
    orders = {}
    for (ramified, _), members in _batches(model).items():
        g_orders, eta_orders = _loop_orders(model, specials, [i for _, i in members],
                                            ramified).tolist()
        orders.update(zip([label for label, _ in members], zip(g_orders, eta_orders)))
    rows = tuple(OrderRow(point=label, g_order=orders[label][0], eta_order=orders[label][1],
                          flagged=i is None and model.e == 0)
                 for label, i, _, _ in _point_classes(model))
    return OrderTable(k=model.k, lam=model.lam, rows=rows)


def divisor_degree_check(table: OrderTable, model: VModel) -> tuple[int, int]:
    """(deg div(g), deg div(eta)) from the computed table, weighted by multiplicity.

    deg div(g) must be 0 and deg div(eta) must be 2*genus - 2.
    """
    copies = {label: n for label, _, _, n in _point_classes(model)}
    deg_g = sum(copies[r.point] * r.g_order for r in table.rows)
    deg_eta = sum(copies[r.point] * r.eta_order for r in table.rows)
    return deg_g, deg_eta


@dataclass(frozen=True)
class DegeneracyReport:
    """Numerical witness that the immersion fails at finite distance."""

    k: int
    lam: float
    a: float
    genus: int
    punctures: tuple[str, ...]
    points: tuple[complex, ...]
    density_at_points: tuple[float, ...]
    vanishing_exponents: tuple[int, ...]
    vanishing_order: int
    intrinsic_distance: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": self.lam,
            "a": self.a,
            "genus": self.genus,
            "punctures": list(self.punctures),
            "points": [[z.real, z.imag] for z in self.points],
            "density_at_points": list(self.density_at_points),
            "vanishing_exponents": list(self.vanishing_exponents),
            "vanishing_order": self.vanishing_order,
            "intrinsic_distance": self.intrinsic_distance,
        }


def intrinsic_distance(model: VModel) -> float:
    """Length of the vertical segment t = 0, s in [0, s0] in the surface metric.

    s0 is the strip half-width; the endpoint is the nearest degeneration
    point.  On t = 0 the conformal factor is (k+2)^2 max(u^2, v^2) with
    u = cosh s - a cosh((k+2)s) and v = a sinh((k+2)s) - sinh s.  On [0, s0]
    |u| >= |v| and u keeps one sign, so the length is exactly |Im y(i s0)|:
    finite, so the immersion fails at finite distance from the geodesic.
    """
    params = EpitrochoidParams(k=model.k, lam=model.lam)
    return abs(float(np.imag(make_epitrochoid(params).y(1j * params.zero_height))))


def obstruction_report(model: VModel) -> DegeneracyReport:
    """Degeneration points, the density's vanishing exponents and the finite distance.

    In the local coordinate w the density is |eta_w|^2 (1+|g|^2)^2 / 4, and where g
    has a pole 1+|g|^2 ~ |g|^2, so its exponent at each point is 2 (ord eta + 2 min(ord
    g, 0)) from that point's own winding counts: 2 (3 - 2) on the a-family, 2 * 1 on
    the 1/a-family.  These exponents are the witness of the degeneration;
    ``test_vanishing_exponent_is_two`` checks them against the density's decay.
    ``density_at_points`` is no witness: ``metric_density(v0, 0.0)`` multiplies
    by w = 0 in both of its forms, so it is exactly 0.0 for every (k, lambda).
    """
    specials = (0j,) + degeneracy_points(model)
    pts = specials[1:]
    dens = tuple(model.metric_density(v0, 0.0) for v0 in pts)
    g_orders, eta_orders = _loop_orders(model, specials, range(1, len(specials)),
                                        True).tolist()
    expos = tuple(2 * (eta_order + 2 * min(g_order, 0))
                  for g_order, eta_order in zip(g_orders, eta_orders))
    return DegeneracyReport(
        k=model.k,
        lam=model.lam,
        a=model.a,
        genus=model.genus,
        punctures=model.punctures(),
        points=pts,
        density_at_points=dens,
        vanishing_exponents=expos,
        vanishing_order=min(expos),
        intrinsic_distance=intrinsic_distance(model),
    )


def pullback_residual(model: VModel, n_samples: int = 50) -> float:
    """max deviation between the v-model and the strip data on the geodesic.

    Substitutes v = e^{it} and undoes the -pi/2 rotation: the rotated data
    (g', eta') must satisfy g' = -i g_z and eta_z = v * eta'_coeff(v), with w
    from ``VModel.w_on_geodesic``.
    """
    curve = make_epitrochoid(EpitrochoidParams(k=model.k, lam=model.lam))
    data = data_from_curve(curve)
    ts = 2.0 * math.pi * np.arange(n_samples) / n_samples
    ws = model.w_on_geodesic(ts)
    worst = 0.0
    for t, w, g_strip, eta_strip in zip(ts.tolist(), ws.tolist(), data.g(ts).tolist(),
                                        data.eta(ts).tolist()):
        v = cmath.exp(1j * t)
        worst = max(worst, abs(model.g(v, w) - (-1j) * g_strip),
                    abs(v * model.eta_coeff(v) - eta_strip))
    return worst
