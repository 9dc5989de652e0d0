"""Best-rate calculators for retrieval schemes built on algebraic curves.

Four families are covered.  Throughout, ``m_total`` abbreviates the masking
budget ``x_sec + t_priv`` and a *record* bundles the fragment count ``L``,
the server count ``N`` and the download rate ``L / N``:

* genus 0 (projective line): ``L = floor((q - m_total) / 2)``,
  ``N = L + m_total``.
* genus 1, standalone closed form: given a curve with ``point_count``
  rational points of which ``gamma`` lie on the x-axis,
  ``J = floor((point_count - (m_total + gamma + 9)) / 4)``, ``L = 2J - 1``,
  ``N = L + m_total + 8``.
* hyperelliptic genus ``g >= 1`` with a single point at infinity
  (``y^2`` = monic polynomial of odd degree ``2g + 1``): a two-branch
  closed form for the largest usable ``J``; ``L = 2J - g``,
  ``N = L + m_total + 6g + 2``.
* the Hermitian curve driving the live scheme: the layout ``m``,
  ``L = m*q - g`` and ``N`` that :func:`hermipir.scheme.validate_params`
  returns, feasible exactly when the scheme accepts it ("tight"), or with
  ``(q - 2)(q + 1)/2`` more servers ("padded"; see :func:`hermitian_best`).

Every closed-form record comes from one constructor, and an infeasible
record carries no ``L``, ``N`` or ``J``.

The module also provides the exhaustive / normalized searches over
odd-degree hyperelliptic models used to tabulate best rates per field (one
entry point picks the space: exhaustive up to order 19 or on request,
normalized beyond), and closed-form cross-family comparisons with
machine-checkable conditions.
The searches rest on a histogram identity: models that differ only in the
constant term ``a_0`` share the values ``u(x)`` of the rest of the
polynomial, so one value histogram of ``u`` gives the point profiles of all
``q`` such models (see :func:`achievable_profiles`): ``q`` evaluations
serve ``q`` models, where evaluating each model at every ``x`` takes
``q * q``.  The prefix values are never formed as field elements: in the
carry-free lift (base-p digits re-read in base ``2p - 1``) a field sum is
an integer sum, so a band of prefixes is one addition and one float32
scatter-add histogram over the lifted sums.  One fixed float32 matrix then
folds the lifted sums back, counts the square roots and packs each model's
profile into a 16-bit key, for all ``q`` constant terms in one BLAS
product; it is exact because every key stays below ``2^24``.  Best-rate
selection computes ``J`` per profile in plain ints and builds one record,
for the winner.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .curve import hermitian_genus
from .fields import _BLAS_CALL_MACS, field_of_order
from .linalg import span as linear_span
from .scheme import InfeasibleParams, validate_params

# Hard cap on the number of candidate models a single search may enumerate.
SEARCH_BUDGET = 30_000_000

# Cells (prefixes times points) of one chunk of the curve search's value
# array; a chunk holds at least one prefix.
_CHUNK_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# rendering and tolerant comparison of rates
# ---------------------------------------------------------------------------

def format_rate(value) -> str:
    """Render a nonnegative rational with five significant digits.

    Halves round up.  All arithmetic is exact, so ties such as 0.123455
    format deterministically (here to ``0.12346``) with no binary-float
    noise involved.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("rates are nonnegative")
    if value == 0:
        return "0"
    exponent = 0
    probe = value
    while probe < 1:
        probe *= 10
        exponent -= 1
    while probe >= 10:
        probe /= 10
        exponent += 1
    decimals = max(5 - 1 - exponent, 0)
    shifted = value * 10 ** decimals
    units, rem = divmod(shifted.numerator, shifted.denominator)
    if 2 * rem >= shifted.denominator:
        units += 1
    if decimals == 0:
        return str(units)
    whole, frac = divmod(units, 10 ** decimals)
    return f"{whole}.{frac:0{decimals}d}"


def rate_matches(value, printed: str | None) -> bool:
    """True when a computed rate agrees with a printed decimal within 1e-5.

    ``value`` is a rational or None (no feasible configuration); ``printed``
    is a decimal string or the dash ``"-"``.  A dash matches exactly the
    infeasible case.  The tolerance absorbs last-digit rounding differences
    between independently produced five-digit decimals.
    """
    if printed is None or printed == "-":
        return value is None
    if value is None:
        return False
    return abs(Fraction(value) - Fraction(printed)) <= Fraction(1, 100_000)


# ---------------------------------------------------------------------------
# rate records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRecord:
    """Outcome of a best-rate computation for one family and one (X, T) pair.

    ``frag_count`` and ``server_count`` are the code length parameters
    (``L`` and ``N``); they are None when no feasible configuration exists.
    ``witness`` holds defining coefficients when a concrete curve backs the
    record (searches and counted models), encoded as field elements,
    little-endian in the exponent with the monic leading term implicit.
    """

    family: str
    field_order: int
    x_sec: int
    t_priv: int
    genus: int
    feasible: bool
    frag_count: int | None = None
    server_count: int | None = None
    j_value: int | None = None
    point_count: int | None = None
    gamma: int | None = None
    convention: str = ""
    witness: tuple[int, ...] | None = None
    note: str = ""

    @property
    def rate(self) -> Fraction | None:
        if not self.feasible:
            return None
        return Fraction(self.frag_count, self.server_count)

    @property
    def rate_str(self) -> str:
        if not self.feasible:
            return "-"
        return format_rate(self.rate)

    @property
    def rate_fraction(self) -> str | None:
        """``L/N`` as printed, unreduced; None when infeasible."""
        if not self.feasible:
            return None
        return f"{self.frag_count}/{self.server_count}"

    def to_dict(self) -> dict:
        """The fields in order, the witness as a list, then the two rate strings."""
        out = asdict(self)
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out | {"rate": self.rate_str, "rate_fraction": self.rate_fraction}


def _check_masking(x_sec: int, t_priv: int) -> int:
    if x_sec < 1 or t_priv < 1:
        raise ValueError("x_sec and t_priv must be at least 1")
    return x_sec + t_priv


def _record(family: str, field_order: int, x_sec: int, t_priv: int,
            genus: int, feasible: bool, frag: int | None = None,
            servers: int | None = None, j: int | None = None,
            **fields) -> RateRecord:
    """The record of one closed form; an infeasible one carries no L, N or J."""
    if not feasible:
        frag = servers = j = None
    return RateRecord(family=family, field_order=field_order, x_sec=x_sec,
                      t_priv=t_priv, genus=genus, feasible=feasible,
                      frag_count=frag, server_count=servers, j_value=j,
                      **fields)


# ---------------------------------------------------------------------------
# per-family closed forms
# ---------------------------------------------------------------------------

def rational_best(field_order: int, x_sec: int, t_priv: int) -> RateRecord:
    """Largest-rate genus-0 record over a field with ``field_order`` elements."""
    m_total = _check_masking(x_sec, t_priv)
    frag = (field_order - m_total) // 2
    return _record("rational", field_order, x_sec, t_priv, 0, frag >= 1,
                   frag, frag + m_total)


def elliptic_best(field_order: int, point_count: int, gamma: int,
                  x_sec: int, t_priv: int) -> RateRecord:
    """Standalone genus-1 record for a curve with the given point profile.

    ``gamma`` is the number of affine points on the x-axis (at most 3 for a
    cubic model).  The combined hyperelliptic form can beat this whenever
    some x-values are uncovered by the curve; see
    :func:`genus_one_formulas_agree`.
    """
    m_total = _check_masking(x_sec, t_priv)
    if not 0 <= gamma <= 3:
        raise ValueError("gamma must lie in 0..3 for a cubic model")
    j = (point_count - (m_total + gamma + 9)) // 4
    frag = 2 * j - 1
    return _record("elliptic", field_order, x_sec, t_priv, 1, j >= 1,
                   frag, frag + m_total + 8, j,
                   point_count=point_count, gamma=gamma)


def _line_limited_j(field_order: int, genus: int, gamma: int,
                    m_total: int) -> int:
    """The usable ``J`` when the supply of x-lines runs out first."""
    return (2 * field_order - (m_total + 6 * genus + 2 * gamma + 2)) // 4


def _hyperelliptic_j(field_order: int, genus: int, point_count: int,
                     gamma: int, m_total: int) -> tuple[int, str]:
    """The usable ``J`` of :func:`hyperelliptic_best` and its regime."""
    if 2 * point_count >= 2 * field_order + 6 * genus + m_total + 4:
        return _line_limited_j(field_order, genus, gamma, m_total), "line-limited"
    return (point_count - (m_total + 6 * genus + 3 + gamma)) // 2, "point-limited"


def _hyperelliptic_record(field_order: int, genus: int, j: int, x_sec: int,
                          t_priv: int, **fields) -> RateRecord:
    """The genus-``g`` record of a usable ``J``: ``L = 2J - g``,
    ``N = L + m_total + 6g + 2``, feasible when ``J >= g``."""
    frag = 2 * j - genus
    return _record("hyperelliptic", field_order, x_sec, t_priv, genus,
                   j >= genus, frag, frag + x_sec + t_priv + 6 * genus + 2, j,
                   **fields)


def hyperelliptic_best(field_order: int, genus: int, point_count: int,
                       gamma: int, x_sec: int, t_priv: int) -> RateRecord:
    """Best record for one odd-degree hyperelliptic model of known profile.

    Two regimes: when the curve has enough points
    (``2 * point_count >= 2q + 6g + m_total + 4``) the bottleneck is the
    supply of x-lines and ``J = floor((2q - (m_total + 6g + 2*gamma + 2)) / 4)``;
    otherwise the points themselves run out first and
    ``J = floor((point_count - (m_total + 6g + 3 + gamma)) / 2)``.
    Feasible when ``J >= genus``.
    """
    m_total = _check_masking(x_sec, t_priv)
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if not 0 <= gamma <= 2 * genus + 1:
        raise ValueError("gamma must lie in 0..2g+1")
    j, regime = _hyperelliptic_j(field_order, genus, point_count, gamma, m_total)
    return _hyperelliptic_record(field_order, genus, j, x_sec, t_priv,
                                 point_count=point_count, gamma=gamma,
                                 note=regime)


def hyperelliptic_upper(field_order: int, genus: int,
                        x_sec: int, t_priv: int) -> RateRecord:
    """Profile-free upper bound: the line-limited form at ``gamma = 0``.

    No model over the field can beat this record at the given genus, whatever
    its point count.
    """
    m_total = _check_masking(x_sec, t_priv)
    if genus < 1:
        raise ValueError("genus must be at least 1")
    return _hyperelliptic_record(
        field_order, genus, _line_limited_j(field_order, genus, 0, m_total),
        x_sec, t_priv, convention="gamma-zero-bound")


def hermitian_best(q: int, x_sec: int, t_priv: int,
                   overhead: str = "padded") -> RateRecord:
    """Best Hermitian record over GF(q^2) for the given masking budget.

    The layout is the one :func:`hermipir.scheme.validate_params` accepts
    at its default fiber count: ``m`` and ``L`` come from it, and the record
    is feasible exactly when the scheme would build it.  Two server-overhead
    conventions are supported:

    * ``overhead="tight"``: ``N`` is the scheme's server count, the margin
      the running construction achieves.
    * ``overhead="padded"``: the tight ``N`` plus ``(q - 2)(q + 1)/2``, a
      more conservative degree accounting used in the reference catalog.

    Raises ValueError when ``q`` is not a prime power.
    """
    _check_masking(x_sec, t_priv)
    if overhead not in ("tight", "padded"):
        raise ValueError("overhead must be 'tight' or 'padded'")
    convention = f"overhead-{overhead}"
    try:
        layout = validate_params(q, x_sec, t_priv)
    except InfeasibleParams:
        return _record("hermitian", q * q, x_sec, t_priv, hermitian_genus(q),
                       False, convention=convention)
    servers = layout.server_count
    if overhead == "padded":
        servers += (q - 2) * (q + 1) // 2
    return _record("hermitian", q * q, x_sec, t_priv, layout.genus, True,
                   layout.frag_count, servers, layout.fiber_count,
                   convention=convention,
                   note=f"fiber count m={layout.fiber_count}")


# ---------------------------------------------------------------------------
# point counting and model searches (odd characteristic)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _square_weights(field_order: int) -> np.ndarray:
    """weights[v] = number of y with y^2 = v: 1 for v=0, 2 for squares, else 0.
    Read-only, since every later caller shares the cached array."""
    f = field_of_order(field_order)
    w = np.zeros(field_order, dtype=np.int64)
    w[0] = 1
    nonzero = np.arange(1, field_order, dtype=np.int64)
    w[f.mul_arr(nonzero, nonzero)] = 2
    w.flags.writeable = False
    return w


def count_points_hyperelliptic(field_order: int,
                               coeffs: tuple[int, ...]) -> tuple[int, int]:
    """Point profile of ``y^2 = x^d + sum coeffs[k] x^k`` with ``d = len(coeffs)``.

    ``coeffs`` are field-element encodings, little-endian in the exponent, so
    the monic leading term is implicit and the model degree ``d`` must be odd
    (one point at infinity).  Returns ``(point_count, gamma)`` where the count
    includes the point at infinity and ``gamma`` is the number of x-axis
    points.  Odd characteristic only.
    """
    f = field_of_order(field_order)
    if f.p == 2:
        raise ValueError("odd characteristic required")
    degree = len(coeffs)
    if degree % 2 == 0 or degree < 3:
        raise ValueError("model degree must be odd and at least 3")
    coeffs = f.check_elements(coeffs, "coefficients")
    xs = np.arange(field_order, dtype=np.int64)
    acc = np.ones(field_order, dtype=np.int64)
    for k in range(degree - 1, -1, -1):
        acc = f.add_arr(f.mul_arr(acc, xs), coeffs[k])
    weights = _square_weights(field_order)
    point_count = 1 + int(weights[acc].sum())
    gamma = int((acc == 0).sum())
    return point_count, gamma


def uncovered_x_count(field_order: int, point_count: int, gamma: int) -> int:
    """Number of x-values through which no affine point of the model passes.

    Equals ``(2q - point_count - gamma + 1) / 2`` for any odd-degree model:
    affine points off the x-axis pair up, so ``point_count - 1 - gamma`` must
    be even, and the result must be nonnegative.  Violations raise.
    """
    numerator = 2 * field_order - point_count - gamma + 1
    if gamma < 0 or point_count < 1:
        raise ValueError("invalid point profile")
    if numerator % 2 != 0:
        raise ValueError(
            "parity violation: affine points off the x-axis come in pairs")
    size = numerator // 2
    if size < 0:
        raise ValueError("point profile exceeds the capacity of the field")
    return size


def _lift_fold(f) -> tuple[np.ndarray, np.ndarray]:
    """The carry-free lift of the field's elements and the fold back.

    An element with base-p digits ``d_k`` lifts to ``sum d_k (2p-1)^k``.
    Digits of a sum of two lifts stay below ``2p - 1``, so the sum never
    carries, and folding each of its base-``(2p-1)`` digits mod p gives the
    field sum: ``fold[lift[a] + lift[b]] = a + b``.  ``fold`` has one entry
    per lifted sum, ``(2p - 1)^n`` in all.
    """
    p, base = f.p, 2 * f.p - 1
    elems = np.arange(f.order, dtype=np.int64)
    sums = np.arange(base ** f.n, dtype=np.int64)
    lift = np.zeros(f.order, dtype=np.int64)
    fold = np.zeros(base ** f.n, dtype=np.int64)
    for k in range(f.n):
        lift += elems // p ** k % p * base ** k
        fold += sums // base ** k % base % p * p ** k
    return lift, fold


@lru_cache(maxsize=None)
def achievable_profiles(field_order: int, genus: int,
                        reduced: bool = False) -> tuple:
    """All (point_count, gamma) profiles over monic odd-degree models.

    Enumerates ``y^2 = x^(2g+1) + a_{2g} x^{2g} + ... + a_0`` over the field
    and returns a sorted tuple of ``(point_count, gamma, coeffs)`` entries,
    where ``coeffs`` is the first witness in enumeration order (coefficient
    vectors ordered as base-``field_order`` integers, ``a_0`` least
    significant).

    With ``reduced=True`` the substitution ``x -> x + c`` pins ``a_{2g} = 0``,
    shrinking the space by one dimension.  The substitution is a bijection on
    points fixing the profile, and can reach ``a_{2g} = 0`` exactly when the
    characteristic does not divide ``2g + 1``; requesting the reduced space
    otherwise raises.  Witnesses are then reported in normalized form.

    The search never evaluates a whole model.  Write the right-hand side as
    ``u + a_0``, where the prefix ``u`` holds ``x^(2g+1)`` and
    ``a_1 .. a_{2g}`` (``a_{2g} = 0`` in the reduced space).  Each prefix is
    evaluated once at all ``q`` points, giving its value histogram
    ``h[v] = #{x : u(x) = v}``.  Then for all ``q`` choices of ``a_0`` at
    once, ``point_count = 1 + sum_v h[v] * w[v + a_0]`` (``w`` counts the
    square roots) and ``gamma = h[-a_0]``.  A model's enumeration index is
    ``prefix * q + a_0``, so the row-major order of the per-model keys is
    the enumeration order.

    Prefixes are processed in chunks of consecutive indices; the lowest
    prefix digits vary inside a chunk and the highest pick the chunk, so a
    prefix value is a field sum of a low part and a high part, each
    evaluated once for all chunks.  That sum is never formed: both parts
    are kept in the carry-free lift of :func:`_lift_fold`, where the field
    sum is a plain integer sum, and the histogram is taken over the
    ``(2p - 1)^n`` lifted sums instead of the ``q`` field values.  The fold,
    the root counts and the key packing ``point_count * 64 + gamma`` are one
    fixed matrix, ``K[s, a_0] = 64 * w[fold(s) + a_0] + [fold(s) = -a_0]``,
    so the keys of a prefix's ``q`` models are ``hist @ K + 64``, exact in
    float32 because every key stays below ``2^24``.  A chunk runs in bands
    of prefix rows, each one addition of the lifted high part to the lifted
    low parts (with each prefix's bin offset inside the band), one
    ``np.add.at`` of float32 ones into the zeroed histogram rows, one BLAS
    product and one first-witness pass over the band's keys.  Keys stay
    16-bit, and a table of the keys seen so far finds the few new ones;
    one ``np.minimum.at`` of their enumeration indices into a key-indexed
    array keeps each key's first witness.  The low parts are lifted in
    place and every work buffer holds one band, reused across bands and
    chunks, so the working set is one chunk-sized table of low parts.
    """
    f = field_of_order(field_order)
    if f.p == 2:
        raise ValueError("odd characteristic required")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    degree = 2 * genus + 1
    if reduced and degree % f.p == 0:
        raise ValueError(
            "translation normalization requires the characteristic "
            "not to divide the model degree")
    n_free = degree - 1 if reduced else degree
    total = field_order ** n_free
    if total > SEARCH_BUDGET:
        raise ValueError(
            f"search space of {total} models exceeds budget {SEARCH_BUDGET}")
    elems = np.arange(field_order, dtype=np.int64)
    lift, fold = _lift_fold(f)
    width = len(fold)
    shifted = f.add_arr(fold[:, None], elems[None, :])  # fold(s) + a_0
    key_matrix = (64 * _square_weights(field_order)[shifted]
                  + (shifted == 0)).astype(np.float32)
    # prefix rows per band: per product, so that BLAS never wakes its thread
    # pool; its work buffers stay in cache
    band = max(1, _BLAS_CALL_MACS // (width * field_order))
    # keys pack count * 64 + gamma below 64 * (2q + 2): 16 bits up to q = 510,
    # past every order the search budget admits at genus 1
    key_limit = 64 * (2 * field_order + 2)
    unseen = np.ones(key_limit, dtype=bool)
    # prefix digits a_1 .. a_{n_free-1}: the lowest `low` of them vary inside
    # a chunk, the others (with x^degree) pick the chunk's `high` values
    low = 0
    while low < n_free - 1 and field_order ** (low + 2) <= _CHUNK_CELLS:
        low += 1
    # row k - 1 holds x^k at every x; a span lists the values of
    # sum_k a_k x^k for every coefficient vector, in enumeration order
    powers = np.array([f.pow_arr(elems, k) for k in range(1, n_free)])
    low_values = linear_span(f, powers[:low])
    high_values = f.add_arr(linear_span(f, powers[low:]),
                            f.pow_arr(elems, degree))
    rows = len(low_values)
    chunk_models = rows * field_order
    # lifted in place (np.take buffers its output only in mode "raise"; the
    # indices are elements, so "wrap" never wraps); each prefix's bins start
    # at its offset inside its row band
    np.take(lift, low_values, out=low_values, mode="wrap")
    low_values += (np.arange(rows) % band * width)[:, None]
    lifted_high = lift[high_values]
    cells = np.empty((min(band, rows), field_order), dtype=np.int64)
    # a float32 operand keeps np.add.at on its fast indexed loop; a Python
    # int sends it to the generic one, some 40 times slower
    ones = np.ones(cells.size, dtype=np.float32)
    hist32 = np.empty((len(cells), width), dtype=np.float32)
    products = np.empty(cells.shape, dtype=np.float32)
    keys = np.empty(cells.shape, dtype=np.min_scalar_type(key_limit))
    # first_index[key]: the enumeration index of the key's first witness,
    # `total` while none is known
    first_index = np.full(key_limit, total, dtype=np.int64)
    for chunk, high in enumerate(lifted_high):
        for r in range(0, rows, band):
            low_band = low_values[r : r + band]
            m = len(low_band)
            np.add(low_band, high, out=cells[:m])
            hist = hist32[:m].ravel()
            hist.fill(0)
            np.add.at(hist, cells[:m].ravel(), ones[: m * field_order])
            np.matmul(hist32[:m], key_matrix, out=products[:m])
            np.add(products[:m], 64, out=keys[:m], casting="unsafe")
            band_keys = keys[:m].ravel()
            # np.take gathers by 16-bit keys without first casting them to intp
            fresh = np.flatnonzero(unseen.take(band_keys))
            if not len(fresh):
                continue
            fresh_keys = band_keys[fresh]
            unseen[fresh_keys] = False
            # the least index of each new key is its first witness
            np.minimum.at(first_index, fresh_keys,
                          chunk * chunk_models + r * field_order + fresh)
    # gamma < 64, so ascending keys list the profiles in sorted order
    found = np.flatnonzero(first_index < total)
    profiles = []
    for key, windex in zip(found.tolist(), first_index[found].tolist()):
        coeffs = []
        rem = windex
        for _ in range(n_free):
            coeffs.append(rem % field_order)
            rem //= field_order
        if reduced:
            coeffs.append(0)
        profiles.append((key // 64, key % 64, tuple(coeffs)))
    return tuple(profiles)


def curve_search_best_rate(field_order: int, genus: int, x_sec: int,
                           t_priv: int, full_search: bool = False) -> RateRecord:
    """Best hyperelliptic record over every monic odd-degree model of a genus.

    The search enumerates every coefficient vector for field orders up to 19
    and, beyond, the translation-normalized space wherever the normalization
    is valid (the characteristic does not divide ``2g + 1``); both spaces
    hold the same profiles.  ``full_search=True`` enumerates every
    coefficient vector at every order.  The returned record carries the
    defining coefficients of a maximizing model as ``witness``; ties in the
    rate resolve to the witness whose coefficient vector is smallest as a
    base-``field_order`` integer.  The rate grows with ``J`` at a fixed
    budget, so one pass over the profiles finds the winner by
    ``(-J, coeffs[::-1])``: equal-length coefficient tuples compared from
    the most significant end sort as those integers.  Only the winner
    becomes a record.
    """
    m_total = _check_masking(x_sec, t_priv)
    p = field_of_order(field_order).p
    use_reduced = not full_search and field_order > 19 and (2 * genus + 1) % p != 0
    profiles = achievable_profiles(field_order, genus, use_reduced)
    space = "reduced" if use_reduced else "exhaustive"
    best = None
    best_key: tuple[int, tuple[int, ...]] | None = None
    for entry in profiles:
        point_count, gamma, coeffs = entry
        j = _hyperelliptic_j(field_order, genus, point_count, gamma, m_total)[0]
        if j < genus:
            continue
        if best_key is None or (-j, coeffs[::-1]) < best_key:
            best_key = (-j, coeffs[::-1])
            best = entry
    if best is None:
        return _record("hyperelliptic", field_order, x_sec, t_priv, genus,
                       False, convention=f"search-{space}",
                       note="no model reaches the usable threshold")
    point_count, gamma, coeffs = best
    rec = hyperelliptic_best(field_order, genus, point_count, gamma, x_sec, t_priv)
    return replace(rec, witness=coeffs, convention=f"search-{space}")


# ---------------------------------------------------------------------------
# cross-family comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """A checkable claim: whenever ``condition_holds``, ``conclusion_holds``.

    ``agreement`` is the implication itself, i.e. it is False exactly when
    the stated sufficient condition is met but the conclusion fails.
    """

    name: str
    condition_holds: bool
    conclusion_holds: bool
    details: dict

    @property
    def agreement(self) -> bool:
        return self.conclusion_holds or not self.condition_holds


def _rate_beats(left: RateRecord, right: RateRecord) -> bool:
    """left strictly better than right, with infeasible ranked below any rate."""
    if not left.feasible:
        return False
    if not right.feasible:
        return True
    return left.rate > right.rate


def elliptic_beats_rational(field_order: int, point_count: int, gamma: int,
                            x_sec: int, t_priv: int) -> ComparisonReport:
    """Genus 1 beats genus 0 once the curve has enough points.

    Sufficient condition:
    ``(x_sec + t_priv) * (point_count - gamma - 7 - q) >= 8q``, i.e.
    ``point_count >= q(1 + 8/m_total) + gamma + 7``.
    """
    m_total = _check_masking(x_sec, t_priv)
    condition = (m_total * (point_count - gamma - 7 - field_order)
                 >= 8 * field_order)
    e_rec = elliptic_best(field_order, point_count, gamma, x_sec, t_priv)
    r_rec = rational_best(field_order, x_sec, t_priv)
    return ComparisonReport(
        name="elliptic-beats-rational",
        condition_holds=condition,
        conclusion_holds=_rate_beats(e_rec, r_rec),
        details={
            "elliptic": e_rec.to_dict(),
            "rational": r_rec.to_dict(),
        },
    )


def hermitian_elliptic_gap_poly(q: int, m_total: int) -> int:
    """Quartic whose sign decides hermitian-bound vs elliptic-bound.

    Positive exactly when the Hermitian lower bound exceeds the genus-1
    upper bound for masking budget ``m_total`` over GF(q^2); it equals half
    the cross-multiplication difference of the two bound fractions.
    """
    return (-3 * q ** 4 + (m_total + 3) * q ** 3 - 2 * (m_total - 1) * q ** 2
            - 3 * (m_total + 2) * q + (m_total - 12))


def hermitian_hyperelliptic_gap_poly(q: int, genus: int, m_total: int) -> int:
    """Quartic whose sign decides hermitian-bound vs genus-g-bound."""
    return (-6 * q ** 4 + (6 * genus + m_total + 4) * q ** 3
            - (3 * m_total - 2) * q ** 2 - (8 * genus + m_total + 2) * q
            + (2 * genus * m_total - 10 * genus - m_total - 2))


def hermitian_rate_lower_bound(q: int, m_total: int) -> Fraction:
    """Floor-free lower bound on the best Hermitian rate over GF(q^2)."""
    return Fraction(q ** 3 + 1 - (m_total + 4 * q ** 2),
                    q ** 3 + 2 * q ** 2 + m_total - (2 * q + 3))


def elliptic_rate_upper_bound(q2: int, m_total: int) -> Fraction:
    """Floor-free upper bound on any standalone genus-1 rate over a field
    of ``q2`` elements (point count capped by the square-root bound)."""
    return Fraction(q2 + 2 * _isqrt_exact(q2) - m_total - 10,
                    q2 + 2 * _isqrt_exact(q2) + m_total + 6)


def _isqrt_exact(q2: int) -> int:
    root = int(round(q2 ** 0.5))
    if root * root != q2:
        raise ValueError("field order must be a perfect square here")
    return root


def hyperelliptic_rate_upper_bound(q2: int, genus: int,
                                   m_total: int) -> Fraction:
    """Floor-free upper bound on any genus-g odd-degree-model rate."""
    return Fraction(2 * q2 - (m_total + 8 * genus + 2),
                    2 * q2 + m_total + 4 * genus + 2)


def elliptic_best_possible(q2: int, x_sec: int, t_priv: int) -> RateRecord:
    """Best standalone genus-1 record any curve over a square-order field
    could reach: point count capped by ``q2 + 2*sqrt(q2) + 1`` and by the
    parity constraint that points off the x-axis pair up."""
    _check_masking(x_sec, t_priv)
    cap = q2 + 2 * _isqrt_exact(q2) + 1
    best: RateRecord | None = None
    for gamma in range(4):
        count = cap if (cap - 1 - gamma) % 2 == 0 else cap - 1
        rec = elliptic_best(q2, count, gamma, x_sec, t_priv)
        if rec.feasible and (best is None or rec.rate > best.rate):
            best = rec
    if best is None:
        return elliptic_best(q2, cap, (cap - 1) % 2, x_sec, t_priv)
    return best


def hermitian_beats_elliptic(q: int, x_sec: int, t_priv: int) -> ComparisonReport:
    """Hermitian beats every genus-1 competitor over GF(q^2).

    Sufficient condition: ``q >= 7`` and ``x_sec + t_priv >= 3(q + 2)``.
    The conclusion compares the tight-overhead Hermitian record with the
    best record any genus-1 curve could possibly reach over the field.
    The floor-free bounds and the deciding quartic are reported as details;
    note the floor-free comparison is slightly weaker and can fail at the
    exact threshold while the record-level conclusion still holds.
    """
    m_total = _check_masking(x_sec, t_priv)
    condition = q >= 7 and m_total >= 3 * (q + 2)
    champion = hermitian_best(q, x_sec, t_priv, overhead="tight")
    competitor = elliptic_best_possible(q * q, x_sec, t_priv)
    lower = hermitian_rate_lower_bound(q, m_total)
    upper = elliptic_rate_upper_bound(q * q, m_total)
    return ComparisonReport(
        name="hermitian-beats-elliptic",
        condition_holds=condition,
        conclusion_holds=not competitor.feasible or _rate_beats(champion, competitor),
        details={
            "hermitian_lower_bound": str(lower),
            "elliptic_upper_bound": str(upper),
            "bounds_ordered": lower > upper,
            "gap_poly": hermitian_elliptic_gap_poly(q, m_total),
            "hermitian_record": champion.to_dict(),
            "elliptic_record": competitor.to_dict(),
        },
    )


def hermitian_beats_hyperelliptic(q: int, genus: int, x_sec: int,
                                  t_priv: int) -> ComparisonReport:
    """Hermitian beats every genus-g odd-degree model over GF(q^2).

    Sufficient condition: ``x_sec + t_priv >= 3(2q + 3)`` together with
    either ``genus = 1`` and ``q > 31``, or ``genus > 1`` and ``q > 5``.
    The conclusion compares the tight-overhead Hermitian record with the
    profile-free genus-g upper record; floor-free bounds and the deciding
    quartic (exactly half their cross-multiplication difference) are
    reported as details.
    """
    m_total = _check_masking(x_sec, t_priv)
    if genus < 1:
        raise ValueError("genus must be at least 1")
    condition = m_total >= 3 * (2 * q + 3) and (
        (genus == 1 and q > 31) or (genus > 1 and q > 5))
    champion = hermitian_best(q, x_sec, t_priv, overhead="tight")
    competitor = hyperelliptic_upper(q * q, genus, x_sec, t_priv)
    lower = hermitian_rate_lower_bound(q, m_total)
    upper = hyperelliptic_rate_upper_bound(q * q, genus, m_total)
    return ComparisonReport(
        name="hermitian-beats-hyperelliptic",
        condition_holds=condition,
        conclusion_holds=not competitor.feasible or _rate_beats(champion, competitor),
        details={
            "hermitian_lower_bound": str(lower),
            "hyperelliptic_upper_bound": str(upper),
            "bounds_ordered": lower > upper,
            "gap_poly": hermitian_hyperelliptic_gap_poly(q, genus, m_total),
            "hermitian_record": champion.to_dict(),
            "upper_record": competitor.to_dict(),
        },
    )


# ---------------------------------------------------------------------------
# consistency of the two genus-1 closed forms
# ---------------------------------------------------------------------------

def genus_one_formulas_agree(field_order: int, point_count: int, gamma: int,
                             x_sec: int, t_priv: int) -> dict:
    """Compare the standalone genus-1 form with the unified genus-g form.

    When the curve covers every x-value (``uncovered_x_count == 0``, i.e.
    ``point_count = 2q + 1 - gamma``) the two closed forms produce the same
    usable ``J`` — identical records, including feasibility.  With uncovered
    x-values the unified form may strictly improve on the standalone one,
    never the reverse.
    """
    standalone = elliptic_best(field_order, point_count, gamma, x_sec, t_priv)
    unified = hyperelliptic_best(field_order, 1, point_count, gamma,
                                 x_sec, t_priv)
    agree = standalone.feasible == unified.feasible and (
        not standalone.feasible or standalone.rate == unified.rate)
    return {
        "standalone": standalone,
        "unified": unified,
        "agree": agree,
        "uncovered": uncovered_x_count(field_order, point_count, gamma),
    }
