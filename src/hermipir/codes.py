"""Evaluation codes from curve functions, with distance and independence
certificates.

An evaluation code is the image of a function space under evaluation at a
fixed list of affine points.  `degG` is the degree of the pole divisor that
the function space fills out; the standard bounds then read

* designed minimum distance of the code:  N - degG,
* minimum distance of the dual:           degG - 2*genus + 2,

both valid whenever they are positive.  Brute-force routines verify the
bounds on small instances, and the w-wise independence check certifies, for
w = 1 and w = 2, that every w columns of the generator matrix are linearly
independent (the combinatorial face of the dual-distance bound).  Dependent
column pairs are found by one sort of the columns scaled to a leading 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hermipir.fields import GFField
from hermipir.linalg import right_kernel_basis, rref, span

_BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class EvalCode:
    """A k x N generator matrix of function evaluations over `field`."""

    field: GFField
    gen: np.ndarray
    genus: int
    degG: int

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    @property
    def n(self) -> int:
        return self.gen.shape[1]


def generator_matrix(field: GFField, functions, points, genus: int, degG: int) -> EvalCode:
    """Evaluate `functions` (rows) at `points` (columns).  Raises if any
    function has a pole at any of the points."""
    gen = np.stack([fn.evaluate_many(points) for fn in functions], axis=0)
    return EvalCode(field=field, gen=gen, genus=genus, degG=degG)


def from_matrix(field: GFField, gen, genus: int, degG: int) -> EvalCode:
    return EvalCode(field=field, gen=np.asarray(gen, dtype=np.int64), genus=genus, degG=degG)


def goppa_designed_distance(code: EvalCode) -> int:
    """N - degG: every nonzero codeword has at least this many nonzeros
    (meaningful when positive)."""
    return code.n - code.degG


def dual_distance_bound(code: EvalCode) -> int:
    """degG - 2*genus + 2: lower bound on the dual minimum distance,
    meaningful when positive."""
    return code.degG - 2 * code.genus + 2


def check_w_wise_independence(code: EvalCode, w: int) -> tuple[bool, tuple[int, ...] | None]:
    """Certify that every w columns of the generator are independent, for
    w = 1 (no zero column) or w = 2 (also no two proportional columns).

    Two nonzero columns are dependent exactly when they agree once each is
    scaled to a leading 1, so one sort of the scaled columns finds them all.
    Returns (ok, None) or (False, witness): the first zero column, or the
    lexicographically first dependent pair.
    """
    if not 1 <= w <= 2:
        raise ValueError("w must be 1 or 2")
    gen = code.gen
    n = code.n
    if w > code.k:
        # more columns than the ambient dimension: never independent
        return False, tuple(range(w))
    zero_cols = np.flatnonzero((gen == 0).all(axis=0))
    if zero_cols.size:
        return False, (int(zero_cols[0]),)
    if w == 1:
        return True, None

    f = code.field
    first_nz = (gen != 0).argmax(axis=0)
    lead = gen[first_nz, np.arange(n)]
    canon = f.mul_arr(gen, f.inv_arr(lead)[None, :])
    # owner[j]: the first column whose canonical form equals column j's
    _, first, inverse = np.unique(canon, axis=1, return_index=True, return_inverse=True)
    owner = first[inverse]
    later = np.flatnonzero(owner != np.arange(n))
    if not later.size:
        return True, None
    # the smallest owner with a later duplicate, and its next duplicate
    b = later[np.argmin(owner[later])]
    return False, (int(owner[b]), int(b))


def _enumerate_codeword_weights(field: GFField, basis: np.ndarray) -> int:
    """Minimum Hamming weight over all nonzero combinations of `basis` rows."""
    total = field.order ** basis.shape[0]
    if total > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"{total} codewords exceed the brute-force limit {_BRUTE_FORCE_LIMIT}")
    words = span(field, basis)
    weights = (words != 0).sum(axis=1)
    nonzero = weights[(words != 0).any(axis=1)]
    if nonzero.size == 0:
        raise ValueError("code has no nonzero codewords")
    return int(nonzero.min())


def min_distance_bruteforce(code: EvalCode) -> int:
    """Exact minimum distance by span enumeration (guarded).  Reduces to a
    row basis first in case the generator is rank-deficient."""
    r, pivots = rref(code.field, code.gen)
    return _enumerate_codeword_weights(code.field, r[: len(pivots)])


def dual_min_distance_bruteforce(code: EvalCode) -> int:
    """Exact minimum distance of the dual code (guarded)."""
    kernel = right_kernel_basis(code.field, code.gen)
    return _enumerate_codeword_weights(code.field, kernel)
