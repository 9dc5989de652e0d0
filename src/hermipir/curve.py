"""The Hermitian curve x^(q+1) = y^q + y over F_{q^2} and its function spaces.

Points: q^3 affine points plus one point at infinity.  The affine fiber
over an x-value consists of the q solutions of y^q + y = x^(q+1): the
relative trace y^q + y and norm x^(q+1) both map F_{q^2} onto F_q, and the
fiber is the set of y whose trace is the norm of x.  The curve computes the
trace of every element in one array pass and groups the elements by it, so
a fiber lookup is one power.  The origin (0, 0) is the only affine point
where y vanishes, and the curve has genus q(q-1)/2.

Functions on the curve are quotients of bivariate polynomials, kept reduced
so the y-degree stays below q via the curve relation y^q = x^(q+1) - y.  In
reduced form the infinity-pole orders q*i + (q+1)*j of distinct monomials
x^i y^j are pairwise distinct, so the valuation at infinity of a polynomial
is exactly minus the largest pole order among its monomials; valuations of
quotients follow by subtraction.  At the origin, x is a uniformizer and y
has valuation q+1; a polynomial's valuation there is read off its power
series in x, with y = x^(q+1) - y^q expanded to the precision its pole
order at infinity bounds.  A function is evaluated at any number of affine
points in one array pass; a single point is the one-point case of it.

The module builds four function families used by the retrieval scheme:

* ``one_point_basis`` - monomials with a bounded pole at infinity only,
* ``two_point_monomial_set`` - monomials with poles at infinity and origin,
* ``interpolation_basis`` - the per-fragment interpolation functions, listed
  y-power-major and truncated to the fragment count,
* ``info_basis`` - the same functions divided by the product of all data
  linear factors, in closed form with exactly ``z`` denominator factors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from hermipir.fields import factor_prime_power, field_of_order

Poly = dict[tuple[int, int], int]  # (x_power, y_power) -> coefficient encoding


def hermitian_genus(q: int) -> int:
    """The genus q(q - 1)/2 of the Hermitian curve over GF(q^2)."""
    return q * (q - 1) // 2


class HermitianCurve:
    def __init__(self, q: int):
        factor_prime_power(q)  # raises for non prime powers
        self.field = field = field_of_order(q * q)
        self.q = q
        self.genus = hermitian_genus(q)
        # each of the q trace values has q preimages; a stable sort keeps
        # every fiber's y-values ascending
        ys = np.arange(field.order, dtype=np.int64)
        traces = field.add_arr(field.pow_arr(ys, q), ys)
        by_trace = np.argsort(traces, kind="stable").reshape(q, q)
        self._trace_fibers = {int(traces[row[0]]): tuple(row) for row in by_trace.tolist()}

    def fiber_of_x(self, x: int) -> tuple[int, ...]:
        """The q affine points over x, as their y-values in ascending order."""
        return self._trace_fibers[self.field.pow(x, self.q + 1)]

    def affine_points(self) -> list[tuple[int, int]]:
        """All q^3 affine points, ordered by (x, y) encoding."""
        out = []
        for x in self.field.elements():
            for y in self.fiber_of_x(x):
                out.append((x, y))
        return out

    # -- reduced bivariate polynomial arithmetic ------------------------------

    def reduce_poly(self, poly: Poly) -> Poly:
        """Push y-degrees below q using y^q = x^(q+1) - y."""
        f = self.field
        q = self.q
        out: Poly = {}
        work = list(poly.items())
        while work:
            (i, j), c = work.pop()
            if c == 0:
                continue
            if j < q:
                cur = f.add(out.get((i, j), 0), c)
                if cur:
                    out[(i, j)] = cur
                elif (i, j) in out:
                    del out[(i, j)]
            else:
                work.append(((i + q + 1, j - q), c))
                work.append(((i, j - q + 1), f.neg(c)))
        return out

    def poly_mul(self, a: Poly, b: Poly) -> Poly:
        f = self.field
        conv: Poly = {}
        for (ia, ja), ca in a.items():
            for (ib, jb), cb in b.items():
                key = (ia + ib, ja + jb)
                conv[key] = f.add(conv.get(key, 0), f.mul(ca, cb))
        return self.reduce_poly(conv)

    def poly_eval_arr(self, poly: Poly, xs, ys) -> np.ndarray:
        f = self.field
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(xs.shape, ys.shape), dtype=np.int64)
        for (i, j), c in poly.items():
            term = f.mul_arr(f.pow_arr(xs, i), f.pow_arr(ys, j))
            out = f.add_arr(out, f.mul_arr(np.int64(c), term))
        return out

    def poly_infty_valuation(self, poly: Poly) -> int:
        """Exact valuation at infinity of a reduced nonzero polynomial."""
        if not poly:
            raise ValueError("zero polynomial has no valuation")
        q = self.q
        return -max(q * i + (q + 1) * j for (i, j) in poly)

    def poly_origin_valuation(self, poly: Poly) -> int:
        """Exact valuation at the origin of a reduced nonzero polynomial.

        x is a uniformizer there and y = x^(q+1) - y^q vanishes, so y is the
        fixed point of s -> x^(q+1) - s^q among power series without a
        constant term; the map raises the x-adic precision q-fold per step,
        since s^q - t^q = (s - t)^q in characteristic p.  The polynomial
        has no affine pole, so its affine zeros add up to its pole order at
        infinity, which therefore bounds the valuation: the series is
        truncated past it, and its lowest nonzero term gives the answer.
        """
        prec = -self.poly_infty_valuation(poly)
        f, q = self.field, self.q
        y: dict[int, int] = {}  # exponent of x -> coefficient
        while True:
            # s^q maps c x^k to c^q x^(qk): Frobenius is additive
            step = {q + 1: 1} if q + 1 <= prec else {}
            for k, c in y.items():
                if q * k <= prec:
                    step[q * k] = f.sub(step.get(q * k, 0), f.pow(c, q))
            step = {k: c for k, c in step.items() if c}
            if step == y:
                break
            y = step
        powers = [{0: 1}]
        for _ in range(max(j for _, j in poly)):
            powers.append(_series_mul(f, powers[-1], y, prec))
        series: dict[int, int] = {}
        for (i, j), c in poly.items():
            for k, a in powers[j].items():
                if i + k <= prec:
                    series[i + k] = f.add(series.get(i + k, 0), f.mul(c, a))
        return min(k for k, c in series.items() if c)

    def poly_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        f = self.field
        parts = []
        for (i, j) in sorted(poly, key=lambda ij: (ij[1], ij[0])):
            c = f.element_str(poly[(i, j)])
            factors = [c]
            if i:
                factors.append(f"x^{i}" if i > 1 else "x")
            if j:
                factors.append(f"y^{j}" if j > 1 else "y")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def linear_factor(self, alpha: int) -> Poly:
        """The polynomial x - alpha."""
        out: Poly = {(1, 0): 1}
        if alpha:
            out[(0, 0)] = self.field.neg(alpha)
        return out

    def monomial_function(self, i: int, j: int) -> "CurveFunction":
        """x^i * y^j as a function; negative j puts y-powers below the bar."""
        num: Poly = {(i, max(j, 0)): 1}
        den: Poly = {(0, -j if j < 0 else 0): 1}
        return CurveFunction(self, num, den)


class CurveFunction:
    """A function on the curve, stored as reduced numerator / denominator."""

    __slots__ = ("curve", "num", "den")

    def __init__(self, curve: HermitianCurve, num: Poly, den: Poly | None = None):
        self.curve = curve
        self.num = curve.reduce_poly(num)
        self.den = curve.reduce_poly(den) if den is not None else {(0, 0): 1}
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    def evaluate(self, point) -> int:
        """Value at one affine point; raises at poles."""
        return int(self.evaluate_many([tuple(point)])[0])

    def evaluate_many(self, points) -> np.ndarray:
        """Values at affine points, given as a sequence of (x, y) tuples or
        as a (k, 2) int array, in one array pass; raises at poles."""
        xs, ys = np.asarray(points, dtype=np.int64).reshape(-1, 2).T
        f = self.curve.field
        den_v = self.curve.poly_eval_arr(self.den, xs, ys)
        if np.any(den_v == 0):
            bad = int(np.flatnonzero(den_v == 0)[0])
            raise ValueError(f"function has a pole (or 0/0 form) at {(int(xs[bad]), int(ys[bad]))}")
        num_v = self.curve.poly_eval_arr(self.num, xs, ys)
        return f.mul_arr(num_v, f.inv_arr(den_v))

    def valuation_at_infinity(self) -> int:
        """Exact: pole orders of reduced monomials are pairwise distinct."""
        if not self.num:
            raise ValueError("zero function has no valuation")
        return self.curve.poly_infty_valuation(self.num) - self.curve.poly_infty_valuation(self.den)

    def valuation_at_origin(self) -> int:
        """Exact valuation at (0, 0), from power series in x."""
        return self.curve.poly_origin_valuation(self.num) - self.curve.poly_origin_valuation(self.den)

    def __repr__(self) -> str:
        c = self.curve
        if self.den == {(0, 0): 1}:
            return c.poly_str(self.num)
        return f"({c.poly_str(self.num)}) / ({c.poly_str(self.den)})"


def _series_mul(f, a: dict[int, int], b: dict[int, int], prec: int) -> dict[int, int]:
    """Product of two sparse power series, truncated past x^prec."""
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb <= prec:
                out[ka + kb] = f.add(out.get(ka + kb, 0), f.mul(ca, cb))
    return out


# -- function families ---------------------------------------------------------


def one_point_monomials(q: int, max_pole: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) with 0 <= j <= q-1 and q*i + (q+1)*j <= max_pole,
    sorted by increasing pole order at infinity."""
    out = []
    for j in range(min(q, max_pole // (q + 1) + 1)):
        rem = max_pole - (q + 1) * j
        for i in range(rem // q + 1):
            out.append((i, j))
    out.sort(key=lambda ij: q * ij[0] + (q + 1) * ij[1])
    return out


def one_point_basis(curve: HermitianCurve, max_pole: int) -> list[CurveFunction]:
    """Basis of the functions regular away from infinity with pole order at
    most `max_pole` there.  Size max_pole - g + 1 once max_pole > 2g - 2."""
    if max_pole < 0:
        return []
    return [curve.monomial_function(i, j) for i, j in one_point_monomials(curve.q, max_pole)]


def two_point_monomials(q: int, infty_bound: int, origin_bound: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j), 0 <= i <= q and j any integer, with pole order
    at infinity at most `infty_bound` and at the origin at most
    `origin_bound`; sorted by increasing pole order at infinity."""
    out = []
    for i in range(q + 1):
        j_hi = (infty_bound - q * i) // (q + 1)
        j_lo = -((origin_bound + i) // (q + 1))
        for j in range(j_lo, j_hi + 1):
            out.append((i, j))
    out.sort(key=lambda ij: q * ij[0] + (q + 1) * ij[1])
    return out


def two_point_monomial_set(
    curve: HermitianCurve, infty_bound: int, origin_bound: int
) -> tuple[list[CurveFunction], bool]:
    """Monomial functions with poles confined to infinity and the origin,
    within the given orders.  The second return value reports whether the
    count equals infty_bound + origin_bound - g + 1, the dimension the
    Riemann-Roch theorem prescribes for divisor degrees above 2g - 2; when
    it does, the (automatically independent) set is a full basis.
    """
    mons = two_point_monomials(curve.q, infty_bound, origin_bound)
    fns = [curve.monomial_function(i, j) for i, j in mons]
    complete = len(mons) == infty_bound + origin_bound - curve.genus + 1
    return fns, complete


def _check_alphas(curve: HermitianCurve, alphas, m: int) -> list[int]:
    alphas = [int(a) for a in alphas]
    if len(set(alphas)) != len(alphas):
        raise ValueError("data x-values must be distinct")
    if any(a == 0 for a in alphas):
        raise ValueError("data x-values must avoid 0 (its fiber contains the origin)")
    if any(not 0 < a < curve.field.order for a in alphas):
        raise ValueError("data x-values must be nonzero field elements")
    if len(alphas) != m:
        raise ValueError("alpha count must equal m")
    return alphas


def interpolation_labels(q: int, m: int) -> list[tuple[int, int]]:
    """(z, i) labels, z-major, truncated to the fragment count m*q - g.
    z is the y-power plus one; i indexes the omitted linear factor, 1-based
    within the leading m - z + 1 data x-values."""
    frag_count = m * q - hermitian_genus(q)
    out: list[tuple[int, int]] = []
    z = 1
    while len(out) < frag_count:
        if z > m:
            raise AssertionError("label enumeration exhausted early")  # pragma: no cover
        for i in range(1, m - z + 2):
            if len(out) == frag_count:
                break
            out.append((z, i))
        z += 1
    return out


def interpolation_basis(curve: HermitianCurve, m: int, alphas) -> list[CurveFunction]:
    """The fragment interpolation functions y^(z-1) * prod_{i' != i}(x - a_i'),
    taking the product over the leading m - z + 1 data x-values; listed
    z-major and truncated to exactly m*q - g functions."""
    q = curve.q
    if m < (q + 1) / 2:
        raise ValueError(f"need at least (q+1)/2 = {(q + 1) / 2} data x-values, got {m}")
    alphas = _check_alphas(curve, alphas, m)
    out = []
    for z, i in interpolation_labels(q, m):
        num: Poly = {(0, z - 1): 1}
        for idx in range(m - z + 1):
            if idx != i - 1:
                num = curve.poly_mul(num, curve.linear_factor(alphas[idx]))
        out.append(CurveFunction(curve, num))
    return out


def info_basis(curve: HermitianCurve, m: int, alphas) -> list[CurveFunction]:
    """The decoding-side functions h * (interpolation basis), in closed form:
    for label (z, i) this is y^(z-1) / ((x - a_i) * prod of the trailing z-1
    data linear factors), so the denominator has exactly z linear factors.
    Valuation at infinity is q - z + 1 >= 0; all poles sit in data fibers."""
    q = curve.q
    alphas = _check_alphas(curve, alphas, m)
    out = []
    for z, i in interpolation_labels(q, m):
        den = curve.linear_factor(alphas[i - 1])
        for idx in range(m - z + 1, m):
            den = curve.poly_mul(den, curve.linear_factor(alphas[idx]))
        out.append(CurveFunction(curve, {(0, z - 1): 1}, den))
    return out


@lru_cache(maxsize=None)
def curve_for_q(q: int) -> HermitianCurve:
    return HermitianCurve(q)
