"""Arithmetic in GF(p^n).

Field elements are plain Python ints in ``range(order)``: the integer is the
little-endian base-p encoding of the coefficient vector of the residue
polynomial, so ``2 + 3*p`` stands for ``2 + 3*t`` where ``t`` is the class of
the variable modulo the reduction polynomial.  All arithmetic lives on the
field object; the ``*_arr`` variants act elementwise on numpy arrays of
encodings (with broadcasting), which is what keeps the matrix work and the
curve searches fast.

The reduction polynomial is not an input: for every (p, n) we pick the monic
irreducible polynomial of degree n whose constant-first coefficient vector is
smallest in the integer encoding, so a field is reproducible from (p, n)
alone.  Multiplication, inversion and powers use discrete-log tables, built
for every accepted order (up to 2**20) from the smallest primitive element
by the matrix product kernel below, which needs no tables.

Fields of order at most _TABLE_MAX_ORDER (every Hermitian field up to q = 16)
also get flat lookup tables, so that add, sub and mul are one gather at
a * order + b.  In every characteristic neg is sub(0, a).  A field sum
gathers each element's digits packed into bit lanes of one int64, sums the
integers and unpacks each lane mod p.  Characteristic 2 keeps add and sub
as a XOR at every order, cheaper than any gather, and sums by one XOR
reduction; only its products are tabled.  Larger orders add, subtract and
sum digit by digit and multiply by the log tables.  One digit-wise
routine, `_digitwise`, serves the scalar add, neg and sub, the untabled
add_arr and sub_arr, and builds the add and sub tables.

Matrix products rest on one identity: multiplication by x is F_p-linear on
the digits, with matrix columns the digits of x * t^s (s = 0..n-1), so a
field matmul is one matmul over F_p of digit matrices.  It runs as BLAS
products of floats, exact while every partial sum is an integer the float
type holds.  The digit operands are float32 when the whole inner width w
of a product fits one exact float32 block, max(w, 1) * (p - 1)**2 <=
2**24 - 2p, and float64 otherwise; an inner width whose sums could pass
2**53 - 2p is refused, so every product is one exact block.  Every
product of a Hermitian instance up to q = 16 is float32: at q = 7 a query
product's digit sums stay below 44 * 6**2 = 1584 and the decoder's below
434 * 6**2 = 15624.  Float32 halves the bytes of the digit arrays and the
cost of the BLAS calls.  One kernel, `_dot_mod_p`, serves every product,
the doubling steps of the exp table included: it works in bands of output
rows, and reduces each band mod p and recomposes it by p^k straight into
the int64 result.  A matrix that multiplies many operands, like the
retrieval's noise evaluations and decoder, is expanded once by
``prepare_matrix`` and applied by ``matmul_prepared``.

Fresh memory is not free: on a 2-core Linux host, glibc hands freed blocks
of a few hundred KiB back to the kernel, so every full-size temporary is
first-touched again, page by page, on the next call.  A q = 7 retrieval
that built its products through full-size digit arrays and index arrays
took about 500 minor page faults per trial, all in storage encoding.  So a
product allocates its int64 result, one row band of accumulators, and float
digits: n per entry of the operand it splits, and n**2 per entry of the one
it expands, unless ``prepare_matrix`` expanded that once.  ``add_arr``,
``sub_arr`` and ``mul_arr`` take an ``out`` array that may be an operand.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


MAX_ORDER = 2**20
_F64_EXACT = 2**53    # every integer up to here is a float64
_F32_EXACT = 2**24    # and up to here a float32
# The largest product handed to BLAS in one call.  OpenBLAS runs a float64
# product of under about 10**6 multiply-adds on the calling thread; above
# that it wakes its thread pool, which on a 2-core host took about 10 ms per
# call against 0.2 ms for a whole q = 7 query product, and whose threads
# then spin on the second core.  Row bands keep every call single-threaded.
# Float32 products have the same threshold: over 1000 q = 7 query products
# (bands of 45 of 217 rows, about 5.2 * 10**5 multiply-adds per call) the
# process used 0.98-0.99 s of CPU per second of wall time, 0.30-0.35 ms per
# product against 0.47-0.60 ms in float64; with bands of 2**20 the CPU time
# was 1.98 times the wall time and a product took 0.52 ms.
_BLAS_CALL_MACS = 2**19
# Fields up to this order do their elementwise ops by one gather from flat
# int64 tables built in the constructor: every Hermitian field up to q = 16.
# On a 2-core host a 1261 x 2000 subtraction over GF(169) took 21 ms against
# 118 ms digit by digit, and a q = 13 build went from 6.0-7.4 s to 3.3-3.9 s.
# The add, sub and mul tables take 24 * order**2 bytes: 1.4 MiB at GF(243),
# and 16 MiB at GF(841) if the limit were raised that far; GF(256) builds only
# its 512 KiB mul table.  Building took 1-9 ms at orders 169 to 256.
_TABLE_MAX_ORDER = 256
# Entries per product of the exp-table builder.  A fresh process building
# GF(2**20) peaked at 66 MiB of RSS, against 84-85 at one product per doubling.
_EXP_CHUNK_ROWS = 2**16


def _reduce_mod(x: np.ndarray, p: int) -> None:
    """x mod p in place, for float integers 0 <= x <= 2**53 - p in float64,
    or 0 <= x <= 2**24 - p in float32: then x / p rounds to below the next
    integer, so its floor is exact.  `p` is a Python int, so the arithmetic
    keeps the dtype of `x`.  On a 102 x 231 float64 band of sums below 800,
    np.fmod took 0.95 ms and this 0.04 ms."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q


def _store(result: np.ndarray, out) -> np.ndarray:
    """`result`, copied into `out` when one is given."""
    if out is None:
        return result
    out[...] = result
    return out


def _zero_where(values, zero):
    """`values`, a gather from the exp table, with 0 where `zero` holds: a
    zero operand of a product or power gives 0.  A 0-d gather is a numpy
    scalar, which cannot be written, so it is replaced instead."""
    if values.ndim == 0:
        return np.int64(0) if zero else values
    values[zero] = 0
    return values


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(n: int) -> tuple[int, int]:
    """Return (p, k) with n == p**k, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    fs = prime_factors(n)
    if len(fs) != 1:
        raise ValueError(f"{n} is not a prime power")
    p = fs[0]
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError("not a prime power")
    return p, k


# ----------------------------------------------------------------------
# dense little-endian coefficient vectors over F_p (bootstrap arithmetic)
# ----------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_modred(out, mod, p)


def _poly_modred(a: list[int], mod: Sequence[int], p: int) -> list[int]:
    # mod is monic of degree d = len(mod) - 1
    d = len(mod) - 1
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
    return _poly_trim(a[:d] if len(a) > d else a)


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """base**e reduced mod the monic polynomial `mod`, square-and-multiply."""
    result = [1]
    base = _poly_modred(list(base), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [(c * inv_lead) % p for c in b]
        r = _poly_modred(a, monic_b, p)
        a, b = b, r
    return a


def _is_irreducible(f: Sequence[int], p: int, n: int) -> bool:
    """Degree-n monic f over F_p: x**(p**n) == x mod f, and for every prime
    r | n the polynomial x**(p**(n//r)) - x is coprime to f."""
    xq = _poly_powmod([0, 1], p**n, f, p)
    if _poly_trim(list(xq)) != [0, 1]:
        return False
    for r in prime_factors(n):
        xe = _poly_powmod([0, 1], p ** (n // r), f, p)
        diff = list(xe) + [0] * max(0, 2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(list(f), _poly_trim(diff), p)
        if len(g) > 1:
            return False
    return True


def _lowest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Monic degree-n irreducible over F_p with the smallest little-endian
    integer encoding of its lower-coefficient vector."""
    if n == 1:
        return (0, 1)
    for enc in range(p**n):
        coeffs = []
        e = enc
        for _ in range(n):
            coeffs.append(e % p)
            e //= p
        f = coeffs + [1]
        if _is_irreducible(f, p, n):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class GFField:
    """The finite field GF(p^n) with int-encoded elements.

    Elements are the ints 0..order-1.  Scalar methods take/return ints; the
    ``*_arr`` methods take/return numpy int64 arrays (any broadcastable
    shapes) of encodings.
    """

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        order = p**n
        if order > MAX_ORDER:
            raise ValueError(f"field order {order} exceeds supported limit {MAX_ORDER}")
        self.p = p
        self.n = n
        self.order = order
        self.modulus = _lowest_irreducible(p, n)
        self._pk = tuple(p**k for k in range(n))
        self._build_tables()
        self._build_op_tables()

    # -- construction helpers ------------------------------------------------

    def _build_tables(self) -> None:
        """Discrete-log tables from the smallest primitive element g: g is
        primitive iff g**((order-1)/r) != 1 for every prime r | order-1,
        tested on the bootstrap polynomial arithmetic.  The exp table doubles
        at each step, exp[k:2k] = exp[:k] * g**k in chunks of at most
        _EXP_CHUNK_ROWS entries, and g**k squares, all as field products by
        `_matmul`, which needs no tables: a column times
        the 1 x 1 matrix [g**k] runs on `_dot_mod_p` with inner width n, so
        its digit sums stay below n * (p - 1)**2 <= 2**40 and are exact in
        the float dtype ``_digit_dtype`` picks, and its row bands of at most
        _BLAS_CALL_MACS multiply-adds keep BLAS on the calling thread."""
        p, order, mod = self.p, self.order, self.modulus
        cofactors = [(order - 1) // r for r in prime_factors(order - 1)]
        g = next(g for g in range(1, order)
                 if all(_poly_powmod(self.coeffs(g), e, mod, p) != [1] for e in cofactors))
        exp = np.empty(2 * (order - 1), dtype=np.int64)
        exp[0] = 1
        gk = np.array([[g]], dtype=np.int64)  # g**k
        k = 1
        while k < order - 1:
            m = min(k, order - 1 - k)
            for c in range(0, m, _EXP_CHUNK_ROWS):
                d = min(m, c + _EXP_CHUNK_ROWS)
                exp[k + c : k + d] = self._matmul(exp[c:d, None], gk)[:, 0]
            gk = self._matmul(gk, gk)
            k *= 2
        exp[order - 1 :] = exp[: order - 1]
        log = np.zeros(order, dtype=np.int64)
        log[exp[: order - 1]] = np.arange(order - 1)
        self.generator = g
        self._exp = exp
        self._log = log

    def _build_op_tables(self) -> None:
        """Flat int64 tables for the elementwise ops of a field of order at
        most _TABLE_MAX_ORDER, computed once by the code without tables:
        entry a * order + b of a binary table is (a op b), and entry a of
        the lane table packs digit k of a at bit k * (63 // n).
        Characteristic 2 gets only the mul table: its add and sub are a
        XOR, which a gather would slow."""
        self._add_table = self._sub_table = self._mul_table = None
        self._lanes = None
        order, p, n = self.order, self.p, self.n
        if order > _TABLE_MAX_ORDER:
            return
        elems = np.arange(order, dtype=np.int64)
        a, b = np.repeat(elems, order), np.tile(elems, order)
        self._mul_table = self._logexp_mul(a, b)
        if p == 2:
            return
        self._add_table = self._digitwise(a, b, 1)
        self._sub_table = self._digitwise(a, b, -1)
        self._lane_bits = 63 // n
        self._lane_terms = ((1 << self._lane_bits) - 1) // (p - 1)
        digits = self._split_digits(elems, np.empty((n, order), dtype=np.int64))
        self._lanes = sum(digits[k] << (k * self._lane_bits) for k in range(n))

    # -- encoding ------------------------------------------------------------

    def check_elements(self, values, what: str) -> np.ndarray:
        """``values`` as an int64 array; ValueError unless each is an
        encoding 0..order-1.  A nonempty array of any dtype but a signed or
        unsigned integer one is refused, not truncated: floats, numeric
        strings, None, bools and ints past int64 (an object array).  The
        range is checked before the cast, so uint64 values of 2**63 and
        above fail it.  numpy upcasts a mixed list such as ``[True, 2]`` to
        int64 before the check sees it, so that one passes."""
        arr = np.asarray(values)
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= self.order):
            raise ValueError(f"{what} must be field element encodings 0..{self.order - 1}")
        return arr.astype(np.int64, copy=False)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Little-endian base-p coefficient vector of length n."""
        return tuple((a // pk) % self.p for pk in self._pk)

    def element_str(self, a: int) -> str:
        """Textual form, e.g. ``[2,3]`` for 2 + 3t."""
        return "[" + ",".join(str(c) for c in self.coeffs(a)) + "]"

    def elements(self) -> range:
        """All elements in a fixed deterministic order; the first is 0."""
        return range(self.order)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._exp[(self.order - 1) - self._log[a]])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return int(self._exp[(int(self._log[a]) * e) % (self.order - 1)])

    # -- bulk arithmetic on encoding arrays -----------------------------------

    def add_arr(self, a, b, out=None) -> np.ndarray:
        """Elementwise field sum, into `out` when given (it may be a or b).

        In characteristic 2 it is a XOR at every order: with add, sub and
        neg routed through tables instead, a q = 8 build took 0.53-0.59 s
        against 0.28-0.33 s.  Otherwise it is one gather from the add table
        at a * order + b up to order _TABLE_MAX_ORDER, and digit by digit
        above it.  sub_arr takes the same three routes, and neg_arr is
        sub_arr(0, a) in every characteristic."""
        return self._add_or_sub(a, b, out, self._add_table, 1)

    def neg_arr(self, a) -> np.ndarray:
        return self.sub_arr(0, a)

    def sub_arr(self, a, b, out=None) -> np.ndarray:
        """Elementwise field difference a - b, into `out` when given (it may
        be a or b)."""
        return self._add_or_sub(a, b, out, self._sub_table, -1)

    def _add_or_sub(self, a, b, out, table, sign: int) -> np.ndarray:
        """a + sign * b by the route add_arr describes; `table` is the add
        or sub table, None where the field has none.  0-d operands give a
        0-d array, not a numpy scalar."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return np.asarray(np.bitwise_xor(a, b, out=out))
        if table is None:
            return np.asarray(_store(self._digitwise(a, b, sign), out))
        return np.asarray(self._gather(table, a, b, out))

    def mul_arr(self, a, b, out=None) -> np.ndarray:
        """Elementwise field product, into `out` when given (it may be a or b)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._mul_table is None:
            return _store(self._logexp_mul(a, b), out)
        return self._gather(self._mul_table, a, b, out)

    def _gather(self, table: np.ndarray, a: np.ndarray, b: np.ndarray, out) -> np.ndarray:
        """table[a * order + b].  With `out`, the index is built in `out`
        and gathered over itself: a full-size operand then costs no fresh
        memory (np.take buffers its output in mode "raise"; the indices of
        encodings are in range, so "wrap" never wraps)."""
        if out is None:
            return table[a * self.order + b]
        np.add(a * self.order, b, out=out)
        return np.take(table, out, out=out, mode="wrap")

    def inv_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def pow_arr(self, a, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones(a.shape, dtype=np.int64)[()]
        if e < 0:
            return self.pow_arr(self.inv_arr(a), -e)
        return _zero_where(self._exp[(self._log[a] * e) % (self.order - 1)], a == 0)

    def sum_arr(self, a, axis=None) -> np.ndarray:
        """Field sum along `axis`.

        In characteristic 2 this is one XOR reduction.  Up to order
        _TABLE_MAX_ORDER it is one gather from a table that packs the n
        base-p digits of each element into n bit lanes of 63 // n bits, one
        integer sum, and one unpacking of each lane mod p: a lane sums
        without a carry into the next while it stays below 2**(63 // n), so
        up to (2**(63 // n) - 1) // (p - 1) terms.  Longer sums, and larger
        orders, reduce each digit on its own."""
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        terms = a.size if axis is None else a.shape[axis]
        if self._lanes is None or terms > self._lane_terms:
            return self._digitwise_sum(a, axis)
        packed = self._lanes[a].sum(axis=axis)
        bits, mask = self._lane_bits, (1 << self._lane_bits) - 1
        out = (packed & mask) % self.p
        for k in range(1, self.n):
            out += ((packed >> (k * bits)) & mask) % self.p * self._pk[k]
        return out

    # -- arithmetic without tables: orders above _TABLE_MAX_ORDER, and the
    # code that builds the tables and that tests check them against

    def _digitwise(self, a, b, sign: int):
        """a + sign * b digit by digit, for sign = 1 or -1: an int for ints,
        an int64 array of the broadcast shape for arrays.  An explicit loop,
        since a generator sum made a scalar call about twice as slow."""
        p = self.p
        out = 0
        for pk in self._pk:
            out = out + ((a // pk + sign * (b // pk)) % p) * pk
        return out

    def _logexp_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _zero_where(self._exp[self._log[a] + self._log[b]], (a == 0) | (b == 0))

    def _digitwise_sum(self, a: np.ndarray, axis=None) -> np.ndarray:
        out = None
        p = self.p
        for pk in self._pk:
            digit = ((a // pk) % p).sum(axis=axis) % p
            out = digit * pk if out is None else out + digit * pk
        return out

    def matmul_arr(self, a, b) -> np.ndarray:
        """Field matrix product of 2-D encoding arrays.

        Multiplying by a field element x is an F_p-linear map on the n
        digits: digit d of x*y is sum_s digit_d(x * t^s) * digit_s(y).  So the
        operand with fewer entries is expanded into the digits of x * t^s for
        s = 0..n-1 (the left one through ``prepare_matrix``), the other is
        split into its digits, and `_dot_mod_p` computes the output digits
        as float products over F_p (``_digit_dtype``) and recomposes them.
        Inner dimensions whose digit sums could pass 2**53 - 2p, where
        float64 stops being exact, are refused.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("expected 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError("inner dimensions differ")
        self._check_inner(a.shape[1])
        return self._matmul(a, b)

    def _matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """matmul_arr on checked int64 operands; it reads no table, so the
        table builder runs on it too."""
        if a.size <= b.size:
            return self.matmul_prepared(self.prepare_matrix(a), b)
        # inner (k, s), columns (d, j): digit s of a[i, k] times digit d of t^s * b[k, j]
        n, (rows, inner), cols = self.n, a.shape, b.shape[1]
        dtype = self._digit_dtype(inner * n)
        left = np.empty((rows, inner, n), dtype=dtype)
        self._split_digits(a, left.transpose(2, 0, 1))
        right = np.empty((inner, n, n, cols), dtype=dtype)
        self._times_powers(b, right.transpose(1, 2, 0, 3))
        return self._dot_mod_p(left.reshape(rows, 1, inner * n), right.reshape(inner * n, n * cols))

    def prepare_matrix(self, a) -> np.ndarray:
        """The digit expansion of a fixed left operand `a` (rows x inner)
        for ``matmul_prepared``: a read-only array of shape
        (rows, n, inner * n), of the dtype ``_digit_dtype`` picks for that
        inner width, whose entry [i, d, k * n + s] is digit d of
        a[i, k] * t^s.  Products by a matrix that stays fixed expand it once
        instead of on every call."""
        a = np.asarray(a, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("expected 2-D matrices")
        self._check_inner(a.shape[1])
        n, (rows, inner) = self.n, a.shape
        out = np.empty((rows, n, inner, n), dtype=self._digit_dtype(inner * n))
        self._times_powers(a, out.transpose(3, 1, 0, 2))
        out = out.reshape(rows, n, inner * n)
        out.flags.writeable = False
        return out

    def matmul_prepared(self, prepared: np.ndarray, b) -> np.ndarray:
        """a @ b in a new int64 array, for prepared = prepare_matrix(a)."""
        b = np.asarray(b, dtype=np.int64)
        if b.ndim != 2:
            raise ValueError("expected 2-D matrices")
        n, (inner, cols) = self.n, b.shape
        if prepared.shape[2] != inner * n:
            raise ValueError("inner dimensions differ")
        # rows (i, d), inner (k, s): digit d of a[i, k] * t^s times digit s of b[k, j]
        right = np.empty((inner, n, cols), dtype=prepared.dtype)
        self._split_digits(b, right.transpose(1, 0, 2))
        return self._dot_mod_p(prepared, right.reshape(inner * n, cols))

    def _digit_dtype(self, width: int) -> type:
        """float32 when every digit sum of a product of inner width `width`
        is at most 2**24 - 2p, so that one float32 block is exact; float64
        otherwise.  An empty width counts as one, so that the float32 block
        is never empty: GF(1048573) gets float64 at every width."""
        if max(width, 1) * (self.p - 1) ** 2 <= _F32_EXACT - 2 * self.p:
            return np.float32
        return np.float64

    def _check_inner(self, inner: int) -> None:
        """ValueError unless every digit sum of a product of this inner
        dimension is at most 2**53 - 2p, so that one float64 block is
        exact; GF(1048573) refuses more than 8192 inner entries."""
        if inner * self.n * (self.p - 1) ** 2 > _F64_EXACT - 2 * self.p:
            raise ValueError(f"inner dimension {inner} would overflow exact float64 digit sums")

    def _split_digits(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the base-p digits of `a`, little-endian, into out[0..n-1]."""
        for k in range(self.n):
            a, out[k] = np.divmod(a, self.p)
        return out

    def _times_powers(self, a: np.ndarray, out: np.ndarray) -> None:
        """Write the digits of a * t^s into out[s] (indexed [s, digit, ...])
        for s = 0..n-1: each step shifts the digits up one place and folds
        t^n back by the modulus."""
        p, n = self.p, self.n
        fold = np.array(self.modulus[:n], dtype=np.int64).reshape((n,) + (1,) * a.ndim)
        cur = self._split_digits(a, np.empty((n,) + a.shape, dtype=np.int64))
        out[0] = cur
        for s in range(1, n):
            # t^n = -(m_0 + m_1 t + ... + m_{n-1} t^(n-1))
            cur = np.concatenate([np.zeros_like(cur[:1]), cur[:-1]]) - cur[n - 1] * fold
            cur %= p
            out[s] = cur

    def _dot_mod_p(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The one digit kernel of the field products.  `left` (rows, g,
        width) holds g rows per output row and `right` (width, c) columns,
        both of one float dtype and all digits in 0..p-1, with
        g * c = n * cols; entry [d, j] of left[i] @ right mod p, read as an
        (n, cols) array, is digit d of output entry (i, j).

        BLAS runs it in bands of output rows of at most _BLAS_CALL_MACS
        multiply-adds, each one product over the whole width: every digit
        sum stays at most 2**24 - 2p in float32 (``_digit_dtype``) or
        2**53 - 2p in float64 (``_check_inner``), where the dtype is exact
        and floor(x / p) is exact too.  Each band is reduced mod p in place
        and recomposed by p^d straight into its rows of the int64 result
        (p^d < 2**20 is exact in either dtype), so no full-size digit array
        or int64 temporary is ever allocated."""
        p, n = self.p, self.n
        rows, g, width = left.shape
        cols = g * right.shape[1] // n
        i_step = max(1, _BLAS_CALL_MACS // max(1, g * width * right.shape[1]))
        pk = np.array(self._pk, dtype=left.dtype)
        out = np.empty((rows, cols), dtype=np.int64)
        for i in range(0, rows, i_step):
            m = min(i_step, rows - i)
            acc = left[i : i + m].reshape(m * g, width) @ right
            _reduce_mod(acc, p)
            out[i : i + m] = pk @ acc.reshape(m, n, cols)
        return out

    # -- sampling -------------------------------------------------------------

    def sample_arr(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.order, size=shape, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GFField(p={self.p}, n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GFField) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash(("GFField", self.p, self.n))


@lru_cache(maxsize=None)
def field_of_order(order: int) -> GFField:
    """The field GF(order) for a prime power `order` (cached)."""
    p, k = factor_prime_power(order)
    return GFField(p, k)
