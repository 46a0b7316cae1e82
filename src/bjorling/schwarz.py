"""Schwarz solution of the planar-geodesic Bjorling problem.

Given a planar curve c, regular on its t-window, the holomorphic null triple

    Phi(z) = ((P + Q)/2, i (Q - P)/2, i W) = (x'(z), y'(z), i W(z)),    W = sqrt(P Q),

integrates to the unique minimal surface through c with the in-plane normal:
f(z) = c(t0) + Re int_{t0}^{z} Phi dw, with P = x' + i y', Q = x' - i y' and
speed^2 = P Q from ``continuation.velocity`` and W its strip branch (positive on
the real axis).  The curves are entire
series, so this is Bjorling's formula f = Re{c(z) - i int n x c' dw} evaluated
exactly where it can be:

    f1(t, s) = Re x(t + is),    f2(t, s) = Re y(t + is),
    f3(t, s) = -int_0^s Re W(t + i sigma) d sigma.

The series are real, so x(conj z) = conj x(z) and W(conj z) = conj W(z): f1 and
f2 are even in s, f3 is odd, Phi1,2(t - is) = conj Phi1,2(t + is) and
Phi3(t - is) = -conj Phi3(t + is).  A patch's points are computed at the distinct
|s| of its rows, and its rows with s < 0 take f3 negated.  ``surface_patch``
computes only the points; the patch's Phi is evaluated on the first read of
``PatchGrid.level_phi``, at the distinct |s| only, and cached there.  No grid of
Phi is built: the mesh attributes need only |P| and |Q| (``meshing.sample_mesh``).

Only f3 needs quadrature (Phi3 is purely imaginary on the axis, so the axis
adds nothing): one real integral per grid column, by Clenshaw-Curtis
(Numer. Math. 2, 1960).  The closed-form strip branch W is sampled at the
Chebyshev points cos(pi k/n) of [0, max|s|], a DCT-I (one real FFT) gives the
interpolant's coefficients, and the termwise integral at every |s| level minus
its value at s = 0 is one einsum contraction, which sums each column alone and in
order whatever its block (never BLAS, which fuses and reorders the sum).  W is
analytic past the interval, so the coefficients fall geometrically (Trefethen,
ATAP, ch. 8 and 19); columns whose series has not converged double n, reusing
every sample.  P, Q and W at the nodes, on the grid and at single points come
from one helper on ``velocity`` and ``strip_branch``; ``phi(curve, t, s)`` takes
t and s that broadcast together, so a (1, nt) t and an (ns, 1) s give the grid
from 1-D factors.  A patch must stay inside ``Strip.cap`` of the curve's
``Strip`` from ``continuation.find_strip``, which also makes the one regularity
decision: it refuses a window with a zero of speed^2 on it.
The Weierstrass data of Phi = ((1 - g^2) eta/2, i (1 + g^2) eta/2, g eta) are
g = i W/Q = i sqrt(P/Q) and eta = Q dz = (x' - i y') dz (``data_from_curve``), and
``period_residual`` is the real period of Phi around a closed curve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .continuation import Strip, find_strip, strip_branch, velocity
from .curves import InvalidCurveParameters, PlanarCurve

DEFAULT_QUAD_TOL = 1e-11
# multiple of the unit roundoff in the integrand's own rounding floor
ROUNDING_SAFETY = 16.0
# a column is sampled at cos(pi k/n), k = 0..n: n starts at CC_FIRST_N and doubles up to CC_MAX_N
CC_FIRST_N = 32
CC_MAX_N = 1024
BLOCK_POINTS = 1 << 15


class QuadratureFailure(RuntimeError):
    """A column integral did not converge with the largest Chebyshev grid."""


class StripTooWide(ValueError):
    """Requested |Im z| exceeds 0.9x the distance to the nearest speed^2 zero."""


def _strip_parts(curve: PlanarCurve, t, s):
    """P = x' + i y', Q = x' - i y' and the strip branch W of sqrt(P Q) at t + i s,
    for t and s that broadcast together."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    p, q, speed2 = velocity(curve, t, s)
    return p, q, strip_branch(curve, t, s, speed2)


def phi(curve: PlanarCurve, t, s):
    """The null curve Phi = ((P + Q)/2, i (Q - P)/2, i W) = (x', y', i W) at t + i s, for
    t and s that broadcast together, stacked on a new last axis.  A (1, nt) t and an
    (ns, 1) s give the grid from 1-D factors.  phi1^2 + phi2^2 + phi3^2 = 0 holds
    identically; on the real axis phi3 is purely imaginary with positive imaginary part."""
    p, q, w = _strip_parts(curve, t, s)
    return np.stack([0.5 * (p + q), 0.5j * (q - p), 1j * w], axis=-1)


@dataclass
class WeierstrassData:
    """Evaluable pair (g, eta/dz) on the strip."""

    g: Callable
    eta: Callable


def data_from_curve(curve: PlanarCurve) -> WeierstrassData:
    """Weierstrass data on the strip straight from the curve series: eta = Q and
    g = i W/Q, with W the strip branch of sqrt(P Q)."""

    def eta(z):
        return velocity(curve, np.real(z), np.imag(z))[1]

    def g(z):
        _, q, w = _strip_parts(curve, np.real(z), np.imag(z))
        out = 1j * w / q
        return complex(out) if out.ndim == 0 else out

    return WeierstrassData(g=g, eta=eta)


def period_residual(curve: PlanarCurve) -> np.ndarray:
    """Re of the loop integral of Phi over the closed curve at s = 0.

    Phi1 and Phi2 integrate to x and y exactly and Re Phi3 = 0 on the axis, so
    the residual is (x(t_hi) - x(t_lo), y(t_hi) - y(t_lo), 0).
    """
    if not curve.closed:
        raise ValueError("period residual is defined for closed curves")
    t_lo, t_hi = curve.domain
    (x0, y0), (x1, y1) = curve.eval(t_lo), curve.eval(t_hi)
    return np.array([x1 - x0, y1 - y0, 0.0])


def surface_point(curve: PlanarCurve, t: float, s: float,
                  tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Surface value f(t + i s): exact Re x, Re y and the column integral f3, taken
    over [0, |s|] and negated for s < 0 (f3 is odd in s)."""
    f3 = _column_integrals(curve, np.array([float(t)]), [abs(s)], tol)[0, 0]
    x, y = curve.eval(complex(t, s))
    return np.array([np.real(x), np.real(y), -f3 if s < 0 else f3])


class PatchGrid:
    """Sampled Schwarz surface patch with its exact null-triple values.

    ``points[l, j]`` is f(t_vals[j] + i s_vals[l]); ``level_phi`` carries Phi at the
    distinct |s| of the rows, so conformal quantities need no differencing.  It is
    evaluated on its first read and kept on the patch.
    """

    def __init__(self, curve: PlanarCurve, t_vals: np.ndarray, s_vals: np.ndarray,
                 points: np.ndarray):
        self.curve, self.t_vals, self.s_vals, self.points = curve, t_vals, s_vals, points

    @functools.cached_property
    def level_phi(self) -> np.ndarray:
        """Phi (L, nt, 3) at the L distinct |s| of the rows, in increasing order."""
        levels = np.array(sorted(set(np.abs(self.s_vals).tolist())))
        return _columns(self.t_vals, levels, lambda cols, levels: phi(
            self.curve, self.t_vals[cols][None, :], levels[:, None]), complex)

    @property
    def geodesic_row(self) -> int | None:
        idx = int(np.argmin(np.abs(self.s_vals)))
        return idx if abs(self.s_vals[idx]) < 1e-12 else None


def surface_patch(curve: PlanarCurve, t_range, s_range, nt: int, ns: int,
                  workers: int = 1, strip: Strip | None = None) -> PatchGrid:
    """Sample the anchored Schwarz surface on a t x s grid.

    The planar coordinates are Re x and Re y on the grid, so the row s = 0
    (when present) is the input curve itself; f3 comes from one Clenshaw-Curtis
    integral per column over [0, max|s|].  Everything is evaluated at the
    distinct |s| only, and the rows with s < 0 are its reflection: f1 and f2
    copied, f3 negated.  Only the points are computed here: the patch's
    ``level_phi`` is evaluated on its first read and cached, so a caller that
    reads only points never pays for it.  When s_range is symmetric,
    s_vals[ns-1-l] == -s_vals[l] and the middle row of an odd ns is s = 0.0, so
    the two halves are bitwise mirrors.  ``workers`` > 1 splits the columns over
    threads with bitwise the same result; it is kept only for the benchmark's
    thread probe, and the CLI runs serial.  ``strip`` is the curve's strip over a
    t-window covering t_range (found here when not given; ValueError when it
    belongs to another curve or window).  Raises StripTooWide when |s| exceeds
    ``strip.cap``, and InvalidCurveParameters when the curve is not regular on
    t_range or the patch leaves float range.
    """
    if nt < 2 or ns < 2:
        raise ValueError("nt and ns must be at least 2")
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if strip is None:
        strip = find_strip(curve, (t_lo, t_hi))
    elif strip.curve != curve or not strip.t_range[0] <= t_lo <= t_hi <= strip.t_range[1]:
        raise ValueError("the strip for %s over %s does not cover %s over %s"
                         % (strip.curve.label, strip.t_range, curve.label, (t_lo, t_hi)))
    if max(abs(s_lo), abs(s_hi)) > strip.cap * (1.0 + 1e-12):
        raise StripTooWide(
            "requested |s| up to %g exceeds the usable strip half-width %g"
            % (max(abs(s_lo), abs(s_hi)), strip.cap))
    t_vals = np.linspace(t_lo, t_hi, nt)
    s_vals = np.linspace(s_lo, s_hi, ns)
    if s_lo == -s_hi:  # exact mirror pairs, and 0.0 in the middle of an odd ns
        s_vals = 0.5 * (s_vals - s_vals[::-1])

    def half(cols, levels):
        t = t_vals[cols]
        f3 = _column_integrals(curve, t, levels, DEFAULT_QUAD_TOL)
        return np.stack([curve.x.grid(t, levels).real, curve.y.grid(t, levels).real, f3], axis=-1)

    points = _columns(t_vals, s_vals, half, float, workers)
    return PatchGrid(curve=curve, t_vals=t_vals, s_vals=s_vals, points=points)


def _chebyshev_antiderivative(values):
    """T_0 .. T_{n+1} coefficients of an antiderivative of the interpolant of
    values (n + 1, m) at x_k = cos(pi k / n): a DCT-I (one real FFT of the even
    extension), then T_j -> T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1)) termwise."""
    n, m = len(values) - 1, values.shape[1]
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / n
    c[[0, n]] *= 0.5
    c = np.concatenate([c, np.zeros((2, m))])
    out = np.zeros((n + 2, m))
    out[1] = c[0] - 0.5 * c[2]
    out[2:] = (c[1:n + 1] - c[3:]) / (2.0 * np.arange(2, n + 2))[:, None]
    return out


def _chebyshev_increments(coef, x, x0):
    """sum_j coef[j] (T_j(x) - T_j(x0)) for coef of shape (J, m) and x of shape (L,).

    One unoptimised einsum over the T_j table sums each output alone, in order of j,
    whichever columns share the call: bit for bit the loop in tests/oracles.py but for a
    lone output (L = m = 1).  ``@`` and ``optimize=True`` reach BLAS, which fuses and reorders."""
    u = np.append(x, x0)
    t = np.empty((len(coef), len(u)))
    t[0], t[1] = 1.0, u
    for j in range(2, len(coef)):
        t[j] = 2.0 * u * t[j - 1] - t[j - 2]
    return np.einsum("jl,jm->lm", t[1:, :-1] - t[1:, -1:], coef[1:])


def _column_integrals(curve: PlanarCurve, t, levels, tol: float):
    """-int_0^level Re W(t + i sigma) d sigma for each t and level, shape (L, len(t)).

    Clenshaw-Curtis over sigma in [0, max(levels)], with W on the grid of the
    columns and the Chebyshev nodes.  A column is done when the upper half of its
    integrated series sums to within tol or within its rounding floor, the
    integrand's own size ROUNDING_SAFETY eps hi max|W|; the others double n,
    keeping their samples, up to CC_MAX_N.  A W that is not finite raises
    InvalidCurveParameters: no resolution can integrate it.
    """
    def sample(k, n, cols):
        sigma = half + half * np.cos(np.pi * k / n)
        with np.errstate(over="ignore", invalid="ignore"):
            w = _strip_parts(curve, t[cols][None, :], sigma[:, None])[2]
        if not np.all(np.isfinite(w)):
            raise InvalidCurveParameters(
                "the patch leaves float range: W is not finite on |s| <= %g" % hi)
        return -w.real, ROUNDING_SAFETY * np.finfo(float).eps * hi * np.max(np.abs(w), axis=0)

    out = np.zeros((len(levels), len(t)))
    hi = max(levels)
    half = 0.5 * hi
    if half == 0.0:
        return out
    x = np.clip((np.asarray(levels, dtype=float) - half) / half, -1.0, 1.0)
    n, cols = CC_FIRST_N, np.arange(len(t))
    values, floor = sample(np.arange(n + 1), n, cols)
    while True:
        coef = half * _chebyshev_antiderivative(values)
        done = sum(np.abs(c) for c in coef[n // 2 + 1:]) <= np.maximum(tol, floor)
        if np.any(done):
            out[:, cols[done]] = _chebyshev_increments(coef[:, done], x, -1.0)
        if np.all(done):
            return out
        if 2 * n > CC_MAX_N:
            raise QuadratureFailure("column quadrature did not reach tol=%g with %d points"
                                    % (tol, n + 1))
        cols = cols[~done]
        fresh, fresh_floor = sample(np.arange(1, 2 * n, 2), 2 * n, cols)
        both = np.empty((2 * n + 1, len(cols)))
        both[0::2], both[1::2] = values[:, ~done], fresh
        values, floor, n = both, np.maximum(floor[~done], fresh_floor), 2 * n


def _columns(t_vals, s_vals, half, dtype, workers: int = 1):
    """(ns, nt, 3) values on the grid, by blocks of whole columns: ``half(cols, levels)``
    gives the values of the block's slice of columns at the distinct |s| in increasing
    order, each row takes those of its |s|, and the rows with s < 0 take the third
    component negated (f3 is odd in s).

    A block holds about BLOCK_POINTS evaluation points (columns times distinct
    |s|), which bounds the temporaries of one evaluation; ``workers`` > 1 runs
    the blocks on threads.  A column's values do not depend on its block.
    """
    # the distinct |s| and each row's index among them, in Python: np.unique's sort
    # kernels would add their code pages to the peak RSS of every patch
    mags = np.abs(s_vals).tolist()
    index = {m: i for i, m in enumerate(sorted(set(mags)))}
    levels, rows = np.array(list(index)), [index[m] for m in mags]
    neg = [l for l, s in enumerate(s_vals.tolist()) if s < 0]    # one run: s_vals is monotone
    low = slice(neg[0], neg[-1] + 1) if neg else slice(0)
    out = np.empty((len(s_vals), len(t_vals), 3), dtype)

    def fill(cols):
        cols = slice(cols[0], cols[-1] + 1)
        values = half(cols, levels)
        for out_row, row in enumerate(rows):
            out[out_row, cols] = values[row]
        np.negative(out[low, cols, 2], out=out[low, cols, 2])

    blocks = np.array_split(np.arange(len(t_vals)), min(len(t_vals), max(
        int(workers), -(-len(levels) * len(t_vals) // BLOCK_POINTS))))
    if workers <= 1:
        for cols in blocks:
            fill(cols)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            list(pool.map(fill, blocks))
    return out
