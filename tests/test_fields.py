"""Field arithmetic: axioms, the maps of F_q < F_{q^2}, encodings, sampling quality."""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from hermipir import fields, linalg
from hermipir.atlas import count_points_hyperelliptic
from hermipir.curve import curve_for_q
from hermipir.fields import (
    GFField,
    factor_prime_power,
    field_of_order,
    is_prime,
    prime_factors,
)
from hermipir.scheme import build_instance, validate_params
from hermipir.transport import encode_elements


def test_prime_helpers():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert prime_factors(360) == [2, 3, 5]
    assert factor_prime_power(841) == (29, 2)
    assert factor_prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        factor_prime_power(12)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    f = GFField(p, n)
    els = list(f.elements())
    assert els[0] == 0
    assert len(els) == p**n
    for a in els:
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b, c = (int(x) for x in rng.integers(0, f.order, 3))
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_modulus_is_deterministic_lowest():
    # x^2+x+1 over F_2, x^2+1 over F_3, x^2+2 over F_5: each is the first
    # irreducible in the little-endian constant-first enumeration.
    assert GFField(2, 2).modulus == (1, 1, 1)
    assert GFField(3, 2).modulus == (1, 0, 1)
    assert GFField(5, 2).modulus == (2, 0, 1)
    assert GFField(7, 1).modulus == (0, 1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        GFField(4, 1)
    with pytest.raises(ValueError):
        GFField(1, 2)
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        curve_for_q(6)


def test_order_budget_enforced():
    with pytest.raises(ValueError):
        GFField(2, 21)
    with pytest.raises(ValueError, match="^field order 4194304 exceeds supported limit 1048576$"):
        curve_for_q(2048)
    assert field_of_order(2**20).order == 2**20  # the limit itself: allowed


def test_inverse_of_zero_raises():
    f = GFField(5, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.inv_arr(np.array([1, 0, 3]))


def test_encoding_round_trip():
    f = GFField(5, 2)
    a = 2 + 3 * 5
    assert f.coeffs(a) == (2, 3)
    assert f.element_str(a) == "[2,3]"
    assert f.element_str(0) == "[0,0]"


def test_pow_matches_repeated_mul():
    f = GFField(3, 3)
    rng = np.random.default_rng(5)
    for _ in range(80):
        a = int(rng.integers(1, f.order))
        acc = 1
        for e in range(9):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 4) == 0


def test_bulk_ops_match_scalar():
    f = GFField(5, 2)
    rng = np.random.default_rng(17)
    a = f.sample_arr(rng, (4, 7))
    b = f.sample_arr(rng, (4, 7))
    assert (f.add_arr(a, b) == np.vectorize(f.add)(a, b)).all()
    assert (f.mul_arr(a, b) == np.vectorize(f.mul)(a, b)).all()
    assert (f.sub_arr(a, b) == np.vectorize(f.sub)(a, b)).all()
    assert (f.pow_arr(a, 3) == np.vectorize(lambda x: f.pow(x, 3))(a)).all()
    nz = a + (a == 0)
    assert (f.inv_arr(nz) == np.vectorize(f.inv)(nz)).all()
    # broadcasting: row times column
    col = f.sample_arr(rng, (4, 1))
    assert f.mul_arr(col, b).shape == (4, 7)
    # field sum along an axis equals folded scalar adds
    s = f.sum_arr(a, axis=1)
    for i in range(a.shape[0]):
        acc = 0
        for v in a[i]:
            acc = f.add(acc, int(v))
        assert acc == int(s[i])


def test_matmul_against_naive():
    f = GFField(3, 2)
    rng = np.random.default_rng(23)
    a = f.sample_arr(rng, (5, 4))
    b = f.sample_arr(rng, (4, 6))
    c = f.matmul_arr(a, b)
    for i in range(5):
        for j in range(6):
            acc = 0
            for k in range(4):
                acc = f.add(acc, f.mul(int(a[i, k]), int(b[k, j])))
            assert acc == int(c[i, j])


# -- reference implementations ------------------------------------------------

def matmul_oracle(f: GFField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Field matmul as a loop over the inner index: one elementwise product
    and one field add per k."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = f.add_arr(out, f.mul_arr(a[:, k : k + 1], b[k : k + 1, :]))
    return out


def digitwise_add(f: GFField, a, b) -> np.ndarray:
    """Sum of two encoding arrays, one base-p digit at a time."""
    return sum((((a // pk) + (b // pk)) % f.p) * pk for pk in f._pk)


def digitwise_neg(f: GFField, a) -> np.ndarray:
    return sum(((f.p - (a // pk) % f.p) % f.p) * pk for pk in f._pk)


# GF(3^11) and GF(1048573) are the largest odd-characteristic orders: the
# oracle's products run on their log tables, and (1048573 - 1)^2 is about 2^40
MATMUL_ORDERS = [7, 8, 25, 49, 64, 3**11, 1048573]


def _matrix(draw, order: int, rows: int, cols: int) -> np.ndarray:
    flat = draw(st.lists(st.integers(0, order - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


@st.composite
def matmul_operands(draw):
    f = field_of_order(draw(st.sampled_from(MATMUL_ORDERS)))
    rows, inner, cols = draw(st.integers(1, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    return f, _matrix(draw, f.order, rows, inner), _matrix(draw, f.order, inner, cols)


@settings(max_examples=150, deadline=None)
@given(matmul_operands())
def test_matmul_matches_k_loop_oracle(operands):
    f, a, b = operands
    assert (f.matmul_arr(a, b) == matmul_oracle(f, a, b)).all()


@pytest.mark.parametrize("order", MATMUL_ORDERS)
@pytest.mark.parametrize("inner", [0, 1])
def test_matmul_thin_inner_dimension(order, inner):
    f = field_of_order(order)
    rng = np.random.default_rng(order + inner)
    a = f.sample_arr(rng, (4, inner))
    b = f.sample_arr(rng, (inner, 3))
    got = f.matmul_arr(a, b)
    assert got.shape == (4, 3) and got.dtype == np.int64
    assert (got == matmul_oracle(f, a, b)).all()
    with pytest.raises(ValueError, match="inner"):
        f.matmul_arr(a, f.sample_arr(rng, (inner + 1, 3)))


def test_matmul_refuses_inner_dimension_past_int64_bound():
    f = GFField(1048573, 1)  # the largest prime below 2**20
    limit = (2**63 - 1) // (f.p - 1) ** 2
    ones = np.broadcast_to(np.int64(1), (1, limit + 1))  # no memory behind it
    with pytest.raises(ValueError, match="overflow"):
        f.matmul_arr(ones, ones.T)


@pytest.mark.parametrize("band_macs", [1, 7, 100])
def test_matmul_row_bands_match_oracle(band_macs, monkeypatch):
    """Products cut into many row bands, one BLAS call each, still match the
    oracle, in both expansion branches and with partial last bands."""
    monkeypatch.setattr(fields, "_BLAS_CALL_MACS", band_macs)
    rng = np.random.default_rng(band_macs)
    for order in MATMUL_ORDERS:
        f = field_of_order(order)
        for rows, inner, cols in [(7, 3, 5), (5, 3, 7), (9, 1, 2), (1, 4, 6), (6, 0, 2)]:
            a = f.sample_arr(rng, (rows, inner))
            b = f.sample_arr(rng, (inner, cols))
            want = matmul_oracle(f, a, b)
            assert (f.matmul_arr(a, b) == want).all()
            assert (f.matmul_prepared(f.prepare_matrix(a), b) == want).all()


@pytest.mark.parametrize("fill", [1, 2])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("shapes", [((2, 3), "left"), ((3, 2), "right")])
def test_matmul_exact_at_float64_block_boundary(shapes, extra, fill):
    """Every entry p - fill at the longest inner dimension whose digit sums
    fit one float64 block (at most 2**53 - 2p): both products are exact.
    (p - 1)^2 is divisible by 16, so only the odd (p - 2)^2 would show a
    sum that float64 rounded.  One past it, both refuse the inner
    dimension: a product is never cut into inner blocks."""
    f = GFField(1048573, 1)
    (rows, cols), _ = shapes
    one_block = 2**53 // (f.n * (f.p - 1) ** 2)
    assert one_block == (2**53 - 2 * f.p) // (f.p - 1) ** 2 == 8192
    inner = one_block + extra
    v = f.p - fill
    a = np.full((rows, inner), v, dtype=np.int64)
    b = np.full((inner, cols), v, dtype=np.int64)
    if extra:
        for call in (lambda: f.matmul_arr(a, b), lambda: f.prepare_matrix(a)):
            with pytest.raises(ValueError, match=f"inner dimension {inner} would overflow"):
                call()
        return
    for got in (f.matmul_arr(a, b), f.matmul_prepared(f.prepare_matrix(a), b)):
        assert got.shape == (rows, cols)
        assert (got == inner * v * v % f.p).all()


@pytest.mark.parametrize("fill", [1, 2])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("order", [7, 49, 169, 256])
def test_matmul_exact_at_float32_block_boundary(order, extra, fill):
    """Every digit p - fill at the longest inner dimension whose digit sums
    fit one float32 block (at most 2**24 - 2p), and at one past it: the
    digit dtype flips from float32 to float64 and both products are exact.
    The kernel runs on broadcast digit operands, which take no memory; the
    public products run where the expansion of a 1 x inner operand, n^2 *
    inner digits, is small (at GF(256) it would take 512 MiB)."""
    f = field_of_order(order)
    inner = (2**24 - 2 * f.p) // (f.p - 1) ** 2 // f.n + extra
    width, digit = inner * f.n, f.p - fill
    dtype = f._digit_dtype(width)
    assert dtype == (np.float64 if extra else np.float32)
    left = np.broadcast_to(dtype(digit), (1, f.n, width))
    got = f._dot_mod_p(left, np.broadcast_to(dtype(digit), (width, 1)))
    assert (got == sum(width * digit * digit % f.p * pk for pk in f._pk)).all()
    if f.n > 2:
        return
    v = sum(digit * pk for pk in f._pk)
    a = np.full((1, inner), v, dtype=np.int64)
    b = np.full((inner, 2), v, dtype=np.int64)
    prepared = f.prepare_matrix(a)
    assert prepared.dtype == dtype
    want = f.mul(inner % f.p, f.mul(v, v))  # the prime subfield encodes k < p as k
    for got in (f.matmul_arr(a, b), f.matmul_arr(b.T, a.T), f.matmul_prepared(prepared, b)):
        assert got.shape in ((1, 2), (2, 1)) and (got == want).all()


# every Hermitian field up to q = 16 at an inner dimension of q^3 + 1, the
# curve's point count, which no instance's server count passes; and
# GF(1048573), where one digit product passes 2**24, at an empty inner
# dimension, where float32 would make the kernel's block step zero
@pytest.mark.parametrize("order, inner, dtype",
                         [(q * q, q**3 + 1, np.float32) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
                         + [(1048573, 0, np.float64), (1048573, 1, np.float64)])
def test_prepared_digit_dtype(order, inner, dtype):
    """Products run in float32 wherever it is exact, float64 elsewhere."""
    f = field_of_order(order)
    rng = np.random.default_rng(inner)
    a = f.sample_arr(rng, (2, inner))
    b = f.sample_arr(rng, (inner, 3))
    prepared = f.prepare_matrix(a)
    assert prepared.dtype == dtype
    want = matmul_oracle(f, a, b)
    assert (f.matmul_prepared(prepared, b) == want).all()
    assert (f.matmul_arr(b.T, a.T) == want.T).all()


@pytest.mark.parametrize("order", [49, 64, 3**5])
@pytest.mark.parametrize("shape", [(2, 5, 7), (7, 5, 2), (1, 4, 1), (3, 3, 3)])
def test_matmul_expands_the_smaller_operand(order, shape, monkeypatch):
    """The operand with fewer entries (the left one on a tie) is the one
    expanded into the digits of x * t^s; both branches match the oracle."""
    f = field_of_order(order)
    rows, inner, cols = shape
    rng = np.random.default_rng(order + rows)
    a = f.sample_arr(rng, (rows, inner))
    b = f.sample_arr(rng, (inner, cols))
    expanded = []
    real = GFField._times_powers

    def spy(self, x, out):
        expanded.append(x.shape)
        return real(self, x, out)

    monkeypatch.setattr(GFField, "_times_powers", spy)
    assert (f.matmul_arr(a, b) == matmul_oracle(f, a, b)).all()
    assert expanded == [a.shape if a.size <= b.size else b.shape]



# every field order a Hermitian instance up to q = 16 uses past the prime
# ones, and one order above _TABLE_MAX_ORDER
PREPARED_ORDERS = [25, 49, 64, 81, 121, 169, 256, 17**2]


@pytest.mark.parametrize("order", PREPARED_ORDERS)
@pytest.mark.parametrize("shape", [(6, 4, 9), (9, 4, 2), (1, 1, 1), (5, 0, 3), (0, 4, 3), (3, 4, 0)])
def test_prepared_product_matches_matmul_and_oracle(order, shape):
    """A prepared left operand gives the same product as matmul_arr and the
    k-loop oracle, with empty inner dimensions, row counts and columns; the
    prepared form is read-only and checks the inner dimension."""
    f = field_of_order(order)
    rows, inner, cols = shape
    rng = np.random.default_rng(order + rows + inner)
    a = f.sample_arr(rng, (rows, inner))
    b = f.sample_arr(rng, (inner, cols))
    prepared = f.prepare_matrix(a)
    assert prepared.shape == (rows, f.n, inner * f.n) and not prepared.flags.writeable
    got = f.matmul_prepared(prepared, b)
    want = matmul_oracle(f, a, b)
    assert got.shape == (rows, cols) and got.dtype == np.int64
    assert (got == want).all() and (f.matmul_arr(a, b) == want).all()
    # the same prepared form serves every right operand
    b2 = f.sample_arr(rng, (inner, cols + 1))
    assert (f.matmul_prepared(prepared, b2) == matmul_oracle(f, a, b2)).all()
    with pytest.raises(ValueError, match="inner"):
        f.matmul_prepared(prepared, f.sample_arr(rng, (inner + 1, cols)))
    with pytest.raises(ValueError, match="2-D"):
        f.matmul_prepared(prepared, b.reshape(-1))


@pytest.mark.parametrize("order", PREPARED_ORDERS + [1048573])
def test_one_draw_equals_successive_draws(order):
    """One draw of shape (L, d, M), its first axis moved last, equals L
    successive (d, M) draws stacked on the last axis, and leaves the
    generator in the same state: Generator.integers keeps the spare half of
    a 64-bit output for the next 32-bit value.  Storage encoding relies on
    this to draw every slot's coefficients at once."""
    f = field_of_order(order)
    for seed in range(10):
        for slots, d, m in [(1, 1, 1), (3, 5, 1), (11, 3, 3), (4, 2, 2)]:
            rng, rng_slots = np.random.default_rng(seed), np.random.default_rng(seed)
            once = np.moveaxis(f.sample_arr(rng, (slots, d, m)), 0, 2)
            per_slot = np.stack([f.sample_arr(rng_slots, (d, m)) for _ in range(slots)], axis=2)
            assert (once == per_slot).all()
            assert rng.bit_generator.state == rng_slots.bit_generator.state
            assert (f.sample_arr(rng, 3) == f.sample_arr(rng_slots, 3)).all()


@pytest.mark.parametrize("order", [25, 64, 17**2, 2**10])
@pytest.mark.parametrize("target", ["fresh", "a", "b"])
def test_binary_ops_into_out_match(order, target):
    """add_arr, sub_arr and mul_arr with `out` give the results they return
    without it on every route (tables, XOR, digit by digit, log tables),
    also when `out` is one of the operands, and broadcast a smaller one."""
    f = field_of_order(order)
    rng = np.random.default_rng(order)
    for op in (f.add_arr, f.sub_arr, f.mul_arr):
        for a_shape in [(4, 5), (4, 1), (1, 5)]:
            a, b = f.sample_arr(rng, a_shape), f.sample_arr(rng, (4, 5))
            if target == "a" and a.shape != b.shape:
                continue
            want = op(a, b)
            out = {"fresh": np.empty((4, 5), dtype=np.int64), "a": a, "b": b}[target]
            got = op(a, b, out=out)
            assert got is out and (out == want).all()


@st.composite
def char2_operands(draw):
    f = field_of_order(draw(st.sampled_from([2, 8, 64])))
    shape = draw(st.sampled_from([(), (5,), (3, 4)]))
    size = int(np.prod(shape))
    a, b = (np.array(draw(st.lists(st.integers(0, f.order - 1), min_size=size, max_size=size)),
                     dtype=np.int64).reshape(shape) for _ in range(2))
    return f, a, b


@settings(max_examples=150, deadline=None)
@given(char2_operands())
def test_char2_add_sub_neg_match_digitwise(operands):
    f, a, b = operands
    total = digitwise_add(f, a, b)
    assert (f.add_arr(a, b) == total).all()
    assert (f.sub_arr(a, b) == digitwise_add(f, a, digitwise_neg(f, b))).all()
    neg = f.neg_arr(a)
    assert (neg == digitwise_neg(f, a)).all() and (neg == a).all()
    assert f.add_arr(a, b).shape == np.shape(total)
    # a copy: callers may write into the result
    if a.ndim:
        assert not np.shares_memory(neg, a)


BROADCAST_SHAPES = [((), ()), ((), (4,)), ((5,), (5,)), ((3, 1), (1, 4)), ((2, 3), (3,)), ((0, 2), (2,))]


@st.composite
def broadcast_operands(draw):
    f = field_of_order(draw(st.sampled_from([7, 25, 49, 3**11])))
    shapes = draw(st.sampled_from(BROADCAST_SHAPES))
    a, b = (_matrix(draw, f.order, 1, math.prod(s)).reshape(s) for s in shapes)
    return f, a, b


@settings(max_examples=150, deadline=None)
@given(broadcast_operands())
def test_sub_arr_matches_scalar_sub(operands):
    f, a, b = operands
    broad = np.broadcast(a, b)
    want = np.array([f.sub(int(x), int(y)) for x, y in broad], dtype=np.int64).reshape(broad.shape)
    got = f.sub_arr(a, b)
    assert got.shape == want.shape and (got == want).all()


# -- lookup tables up to fields._TABLE_MAX_ORDER --------------------------------

def digitwise_sum(f: GFField, a, axis=None) -> np.ndarray:
    """Field sum along `axis`, one base-p digit at a time."""
    return sum((((a // pk) % f.p).sum(axis=axis) % f.p) * pk for pk in f._pk)


TABLED_ORDERS = [3, 9, 25, 49, 81, 121, 243, 64, 256]


@pytest.mark.parametrize("order", TABLED_ORDERS)
def test_tabled_ops_match_oracles_on_all_pairs(order):
    f = field_of_order(order)
    elems = np.arange(order, dtype=np.int64)
    a, b = np.repeat(elems, order), np.tile(elems, order)
    assert (f.add_arr(a, b) == digitwise_add(f, a, b)).all()
    assert (f.sub_arr(a, b) == digitwise_add(f, a, digitwise_neg(f, b))).all()
    assert (f.neg_arr(elems) == digitwise_neg(f, elems)).all()
    assert (f.mul_arr(a, b) == f._logexp_mul(a, b)).all()
    rng = np.random.default_rng(order)
    for x, y in rng.integers(0, order, (40, 2)):
        assert int(f.mul_arr(x, y)) == schoolbook_mul(f, int(x), int(y))
    grid = rng.integers(0, order, (6, 7, 5))
    for axis in (None, 0, 1, -1):
        assert (f.sum_arr(grid, axis=axis) == digitwise_sum(f, grid, axis)).all()


@pytest.mark.parametrize("order", [7, 49, 243, 64])
@pytest.mark.parametrize("shapes", BROADCAST_SHAPES, ids=str)
def test_tabled_ops_broadcast_like_oracles(order, shapes):
    """Broadcast shapes and 0-d inputs keep their parent's result types:
    add, sub and neg give a 0-d array, mul and a full sum an np.int64."""
    f = field_of_order(order)
    rng = np.random.default_rng(len(shapes[0]) + 3 * len(shapes[1]))
    a, b = (rng.integers(0, order, s) for s in shapes)
    got = {"add": f.add_arr(a, b), "sub": f.sub_arr(a, b), "mul": f.mul_arr(a, b), "neg": f.neg_arr(a)}
    want = {"add": digitwise_add(f, a, b), "sub": digitwise_add(f, a, digitwise_neg(f, b)),
            "mul": f._logexp_mul(a, b), "neg": digitwise_neg(f, a)}
    for name, out in got.items():
        assert np.shape(out) == np.shape(want[name]) and (out == want[name]).all(), name
        assert out.dtype == np.int64, name
    if a.ndim == 0 and b.ndim == 0:
        assert all(type(got[name]) is np.ndarray for name in ("add", "sub", "neg"))
        assert type(got["mul"]) is np.int64
    total = f.sum_arr(a)
    assert type(total) is np.int64 and total == digitwise_sum(f, a)


@pytest.mark.parametrize("order", [49, 289])
def test_pow_arr_zero_rule_at_0d_and_array_operands(order):
    """A 0-d operand gives an np.int64, 0 included, and zero entries of an
    array give 0, as the scalar pow does; one tabled and one untabled order."""
    f = field_of_order(order)
    for x in (0, 1, 2, order - 1):
        for e in (1, 2, 5, order - 2) + ((-3,) if x else ()):
            got = f.pow_arr(np.int64(x), e)
            assert type(got) is np.int64 and got == f.pow(x, e), (x, e)
    grid = np.array([[0, 3], [order - 1, 0]], dtype=np.int64)
    for e in (1, 4):
        assert f.pow_arr(grid, e).tolist() == [[f.pow(int(x), e) for x in row] for row in grid]


@pytest.mark.parametrize("order", [17**2, 3**11])
def test_untabled_mul_arr_zero_rule_at_0d_and_array_operands(order):
    """Above _TABLE_MAX_ORDER a product goes through the log tables: a
    zero operand gives 0, and 0-d operands give an np.int64."""
    f = field_of_order(order)
    assert f._mul_table is None
    values = (0, 1, 5, order - 1)
    for x in values:
        for y in values:
            got = f.mul_arr(np.int64(x), np.int64(y))
            assert type(got) is np.int64 and got == f.mul(x, y), (x, y)
    col = np.array(values, dtype=np.int64)
    want = [[f.mul(x, y) for y in values] for x in values]
    assert f.mul_arr(col[:, None], col[None, :]).tolist() == want


@pytest.mark.parametrize("fill", ["top", "random"])
def test_sum_arr_at_lane_capacity(fill, monkeypatch):
    """GF(3^5) packs five digits into 12-bit lanes: 2,047 terms of digit 2
    sum to 4,094 < 2**12 in every lane, and one term more falls back to
    the digit-wise sum."""
    f = field_of_order(243)
    fallbacks = []
    digitwise = GFField._digitwise_sum
    monkeypatch.setattr(GFField, "_digitwise_sum",
                        lambda self, a, axis=None: fallbacks.append(a.shape) or digitwise(self, a, axis))
    rng = np.random.default_rng(243)
    for terms, falls_back in [(2047, False), (2048, True)]:
        grid = (np.full((3, terms), 242) if fill == "top"
                else rng.integers(0, 243, (3, terms)))
        fallbacks.clear()
        assert (f.sum_arr(grid, axis=1) == digitwise_sum(f, grid, axis=1)).all()
        assert (f.sum_arr(grid.T, axis=0) == digitwise_sum(f, grid, axis=1)).all()
        assert f.sum_arr(grid[0]) == digitwise_sum(f, grid[0])
        assert bool(fallbacks) == falls_back


@pytest.mark.parametrize("order", [257, 3**11])
def test_orders_above_limit_build_no_tables(order):
    f = field_of_order(order)
    assert order > fields._TABLE_MAX_ORDER
    assert f._add_table is f._sub_table is f._mul_table is f._lanes is None
    rng = np.random.default_rng(order)
    a, b = rng.integers(0, order, (2, 3, 50))
    assert (f.add_arr(a, b) == digitwise_add(f, a, b)).all()
    assert (f.neg_arr(a) == digitwise_neg(f, a)).all()
    assert (f.sum_arr(a, axis=1) == digitwise_sum(f, a, axis=1)).all()


@pytest.mark.parametrize("order", [8, 64, 256, 2**12])
def test_char2_keeps_xor(order):
    """Characteristic 2 tables only the product: add, sub and neg stay a
    XOR or a copy, and every sum is one XOR reduction."""
    f = field_of_order(order)
    assert f._add_table is f._sub_table is f._lanes is None
    assert (f._mul_table is not None) == (order <= fields._TABLE_MAX_ORDER)
    grid = np.random.default_rng(order).integers(0, order, (4, 9))
    for axis in (None, 0, 1):
        assert (f.sum_arr(grid, axis=axis) == np.bitwise_xor.reduce(grid, axis=axis)).all()
        assert (f.sum_arr(grid, axis=axis) == digitwise_sum(f, grid, axis)).all()


def test_slow_path_field_matches_table_field_on_prime_subfield():
    # GF(17^4) = 83521 restricted to its prime subfield is GF(17).
    big = GFField(17, 4)
    small = GFField(17, 1)
    for a in range(1, 17):
        for b in range(1, 17):
            assert big.mul(a, b) == small.mul(a, b)
            assert big.add(a, b) == small.add(a, b)
        assert big.mul(a, big.inv(a)) == 1
    arr = np.arange(1, 17)
    assert (big.mul_arr(arr, arr) == small.mul_arr(arr, arr)).all()
    assert (big.inv_arr(arr) == np.array([big.inv(int(x)) for x in arr])).all()


# The smallest primitive element of every order the package and its tests
# build (catalogs, verify suites, count-points up to the Hermitian q = 256);
# the generator fixes the whole exp table.
GENERATORS = {
    2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 11: 2, 13: 2, 16: 2, 17: 3, 19: 2,
    23: 5, 25: 6, 27: 3, 29: 2, 49: 9, 64: 2, 81: 3, 121: 15, 243: 3, 256: 3,
    311: 17, 841: 30, 63001: 256, 65536: 3,
}


@pytest.mark.parametrize("order,generator", sorted(GENERATORS.items()))
def test_generator_is_pinned(order, generator):
    f = field_of_order(order)
    assert f.generator == generator
    assert int(f._exp[0]) == 1 and int(f._exp[1]) == generator


# sha256 of the little-endian int64 bytes of exp[0..order-2]: every entry the
# table builder writes, at the largest orders of each kind and at GF(49).
EXP_DIGESTS = {
    2**20: "d9bbf13f33c1e260b790f9f421b476acf69614250c250c8fc849abd27eb5c2fb",
    3**11: "b53dbf4d61d1a16256bdaae869a0ebafb266eff721fd4569e8e17ea42c507772",
    17**4: "add6852a5f9860fc118f167d2ff77c6e255296c6c1caf6bd782241fd339329af",
    1048573: "46938002dd1ca9e33fa15729722581bdef670a4bbd428d3632d104a4ac99e804",
    2**16: "a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
    49: "bfbb44080945d046e687f01a1b53c22bb1df14ae512b1df6db12b94316185d14",
}


@pytest.mark.parametrize("order", sorted(EXP_DIGESTS))
def test_exp_table_is_pinned(order):
    f = field_of_order(order)
    data = f._exp[: order - 1].astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == EXP_DIGESTS[order]


def schoolbook_mul(f: GFField, a: int, b: int) -> int:
    """Product of two encodings by polynomial multiplication mod the modulus."""
    digits = fields._poly_mulmod(list(f.coeffs(a)), list(f.coeffs(b)), f.modulus, f.p)
    return sum(c * f.p**k for k, c in enumerate(digits))


def schoolbook_pow(f: GFField, a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = schoolbook_mul(f, out, a)
        a = schoolbook_mul(f, a, a)
        e >>= 1
    return out


def test_exp_table_builder_chunks_its_products(monkeypatch):
    """At GF(2**18), whose last doubling writes 131,071 entries, no product
    of the table builder takes more than 2**16 rows, and the table still
    steps by the generator."""
    rows = []
    real = GFField._matmul

    def spy(self, a, b):
        rows.append(a.shape[0])
        return real(self, a, b)

    monkeypatch.setattr(GFField, "_matmul", spy)
    f = GFField(2, 18)
    assert max(rows) <= 2**16
    exp = f._exp[: f.order - 1]
    assert sorted(exp.tolist()) == list(range(1, f.order))
    for k in (1, 2**16 - 1, 2**16, 2**17 + 2**16, f.order - 2):
        assert int(exp[k]) == schoolbook_pow(f, f.generator, k)


@pytest.mark.parametrize("order", [17**4, 3**11, 1048573, 2**20])
def test_table_arithmetic_matches_schoolbook(order):
    """mul, inv, pow and their array forms agree with polynomial arithmetic
    on random operands at the largest orders the field accepts."""
    f = field_of_order(order)
    rng = np.random.default_rng(order)
    a, b = f.sample_arr(rng, (2, 300))
    want = [schoolbook_mul(f, int(x), int(y)) for x, y in zip(a, b)]
    assert [f.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert f.mul_arr(a, b).tolist() == want
    nz = a[a != 0][:60]
    inverses = f.inv_arr(nz).tolist()
    assert inverses == [f.inv(int(x)) for x in nz]
    assert all(schoolbook_mul(f, int(x), y) == 1 for x, y in zip(nz, inverses))
    for e in (0, 1, 2, order - 2, int(rng.integers(3, 10**6))):
        want = [schoolbook_pow(f, int(x), e) for x in a[:20]]
        assert [f.pow(int(x), e) for x in a[:20]] == want
        assert f.pow_arr(a[:20], e).tolist() == want


def test_table_builder_uses_no_array_methods(monkeypatch):
    """The builder stays off the array methods: they are the oracle for
    matmul_arr, and their calls are counted per layer."""
    def refuse(*args, **kwargs):
        raise AssertionError("the table builder called an array method")

    for attr in ("add_arr", "neg_arr", "sub_arr", "mul_arr", "inv_arr", "pow_arr", "sum_arr", "matmul_arr"):
        monkeypatch.setattr(GFField, attr, refuse)
    for p, n in [(2, 1), (3, 5), (2, 12), (1048573, 1)]:
        f = GFField(p, n)
        assert sorted(f._exp[: f.order - 1].tolist()) == list(range(1, f.order))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (11, 1)])
def test_tower_maps(p, h):
    q = p**h
    f = field_of_order(q * q)
    elements = np.arange(f.order)
    frob = f.pow_arr(elements, q)
    # F_q is the fixed field of the q-power Frobenius
    sub = set(elements[frob == elements].tolist())
    assert len(sub) == q and 0 in sub
    # Frobenius is an automorphism of order dividing 2 over F_q
    assert (f.pow_arr(frob, q) == elements).all()
    rng = np.random.default_rng(2)
    a, b = f.sample_arr(rng, (2, 60))
    assert (f.pow_arr(f.mul_arr(a, b), q) == f.mul_arr(f.pow_arr(a, q), f.pow_arr(b, q))).all()
    assert (f.pow_arr(f.add_arr(a, b), q) == f.add_arr(f.pow_arr(a, q), f.pow_arr(b, q))).all()
    norms = f.pow_arr(elements, q + 1).tolist()
    traces = f.add_arr(frob, elements).tolist()
    assert set(norms) <= sub
    assert set(traces) <= sub
    trace_fibers = Counter(traces)
    assert set(trace_fibers.values()) == {q}
    assert len(trace_fibers) == q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_norm_fibers(q):
    f = curve_for_q(q).field
    norms = Counter(f.pow_arr(np.arange(f.order), q + 1).tolist())
    assert norms[0] == 1
    nonzero_sizes = {v for k, v in norms.items() if k != 0}
    assert nonzero_sizes == {q + 1}
    assert len(norms) == q


def test_sample_uniform_chi_square():
    f = field_of_order(25)
    rng = np.random.default_rng(20260814)
    draws = f.sample_arr(rng, 100_000)
    counts = np.bincount(draws, minlength=25)
    expected = 100_000 / 25
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < scipy.stats.chi2.ppf(0.999, df=24)


def test_sample_coupon_collector_support():
    f = field_of_order(25)
    rng = np.random.default_rng(31)
    n_draws = math.ceil(25 * math.log(25) * 10)
    assert n_draws == 805
    draws = f.sample_arr(rng, n_draws)
    assert set(int(v) for v in draws) == set(range(25))


def test_enumeration_and_tower_cache_deterministic():
    f1 = field_of_order(49)
    f2 = field_of_order(49)
    assert f1 is f2
    assert list(f1.elements())[:3] == [0, 1, 2]
    assert curve_for_q(3) is curve_for_q(3)
    assert curve_for_q(7).field is f1


def test_every_element_check_raises_value_error():
    """-1, the order, an int past int64, a float, a numeric string and None
    are no GF(25) encodings: the field's check and each entry point that
    takes element encodings from a caller raise ValueError naming the
    range, never numpy's OverflowError or TypeError, and never truncate."""
    inst = build_instance(validate_params(5, 1, 1, num_files=2))
    field = inst.field
    assert field.order == 25
    rng = np.random.default_rng(0)
    for bad in (-1, 25, 2**70, 2.9, "3", None):
        entry_points = (
            lambda: field.check_elements([[0, bad]], "values"),
            lambda: linalg.rank(field, [[bad, 1]]),
            lambda: linalg.solve_prefix(field, [[1, 0], [0, 1]], [bad, 1], 2),
            lambda: inst.encode_storage([[bad] * inst.params.frag_count] * 2, rng),
            lambda: encode_elements(field, [3, bad]),
            lambda: count_points_hyperelliptic(25, (bad, 0, 0)),
        )
        for call in entry_points:
            with pytest.raises(ValueError, match=r"must be field element encodings 0\.\.24"):
                call()
    assert field.check_elements([[0, 24]], "values").dtype == np.int64
    # an out-of-range right-hand side is refused, not reduced mod the order
    for bad in (30, -1):
        with pytest.raises(ValueError, match=r"right-hand side must be field element encodings 0\.\.24"):
            linalg.solve_prefix(field, [[1, 0], [0, 1]], [bad, 1], 2)
    assert linalg.solve_prefix(field, [[1, 0], [0, 1]], [24, 1], 2).tolist() == [24, 1]


@pytest.mark.parametrize("bad", [
    [1.7, 2], [2.0, 3.0], ["3", 4], [None], np.array([True, False]),
    np.array([2**63, 1], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64),
], ids=repr)
def test_element_check_refuses_non_integers(bad):
    """Floats, numeric strings, None, bools and uint64 values past int64
    are no encodings: each raises ValueError, none is truncated or cast."""
    field = field_of_order(25)
    with pytest.raises(ValueError, match=r"must be field element encodings 0\.\.24"):
        field.check_elements(bad, "values")


def test_element_check_keeps_integer_input():
    field = field_of_order(25)
    arr = np.arange(25, dtype=np.int64)
    assert field.check_elements(arr, "values") is arr  # no copy on the fast path
    small = np.array([[3, 24]], dtype=np.uint8)
    assert field.check_elements(small, "values").tolist() == [[3, 24]]
    assert field.check_elements(np.array([24], dtype=np.uint64), "values").dtype == np.int64
    # numpy upcasts a mixed list to int64 before the check sees it
    assert field.check_elements([True, 2], "values").tolist() == [1, 2]
    empty = field.check_elements([], "values")
    assert empty.dtype == np.int64 and empty.shape == (0,)
