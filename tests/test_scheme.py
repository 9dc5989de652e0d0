"""Scheme construction, protocol round trips, marginal statistics."""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import hermipir.scheme as scheme_mod
from hermipir.atlas import hermitian_best
from hermipir.codes import check_w_wise_independence, dual_distance_bound
from hermipir.curve import CurveFunction, one_point_basis
from hermipir.linalg import ColumnSpace
from hermipir.scheme import (
    DecodeError,
    InfeasibleParams,
    SchemeParams,
    build_instance,
    certify_instance,
    chi_square_uniform_stat,
    default_fiber_count,
    run_pir_demo,
    validate_params,
)
from hermipir.tables import TABLE3_BASE_PARAM, TABLE3_BUDGETS


@pytest.fixture(scope="module")
def inst_11():
    return build_instance(validate_params(5, 1, 1, num_files=3))


@pytest.fixture(scope="module")
def inst_22():
    return build_instance(validate_params(5, 2, 2, num_files=2))


def test_validate_params_anchor_values():
    p = validate_params(5, 1, 1, num_files=3)
    assert (p.fiber_count, p.frag_count, p.server_count) == (5, 15, 85)
    assert p.genus == 10
    p2 = validate_params(5, 2, 2)
    assert (p2.fiber_count, p2.frag_count, p2.server_count) == (5, 15, 87)
    p3 = validate_params(11, 5, 5)
    assert (p3.fiber_count, p3.frag_count, p3.server_count) == (44, 429, 789)
    assert default_fiber_count(11, 5, 5) == 44


def test_validate_params_infeasible_cases():
    with pytest.raises(InfeasibleParams) as e:
        validate_params(3, 1, 1)
    assert e.value.violated == "fiber-count-window"
    with pytest.raises(InfeasibleParams):
        validate_params(4, 1, 1)
    with pytest.raises(InfeasibleParams, match="x_sec"):
        validate_params(5, 0, 1)
    with pytest.raises(InfeasibleParams, match="t_priv"):
        validate_params(5, 1, -2)
    with pytest.raises(InfeasibleParams, match="num_files"):
        validate_params(5, 1, 1, num_files=0)
    with pytest.raises(ValueError, match="prime power"):
        validate_params(6, 1, 1)
    # an explicit fiber count outside the window
    with pytest.raises(InfeasibleParams):
        validate_params(5, 1, 1, fiber_count=25)
    # too much collusion for the curve's point supply
    with pytest.raises(InfeasibleParams, match="point-supply|fiber-count"):
        validate_params(5, 20, 20)


def test_accepted_params_match_the_tight_hermitian_record():
    # the atlas's tight record is feasible exactly where the scheme builds,
    # with the scheme's layout: the catalogs' Hermitian rows are rates real
    # instances get, and the padded row adds (q - 2)(q + 1)/2 servers
    accepted = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for x in range(1, 8 * q):
            for t in range(1, 8 * q):
                tight = hermitian_best(q, x, t, overhead="tight")
                padded = hermitian_best(q, x, t, overhead="padded")
                try:
                    p = validate_params(q, x, t)
                except InfeasibleParams:
                    assert not tight.feasible and not padded.feasible, (q, x, t)
                    continue
                accepted += 1
                assert tight.feasible, p
                assert (tight.j_value, tight.frag_count, tight.server_count) == (
                    p.fiber_count, p.frag_count, p.server_count), p
                assert padded.server_count == p.server_count + (q - 2) * (q + 1) // 2, p
    assert accepted > 40_000
    # every Table 3 budget builds
    for b in TABLE3_BUDGETS:
        validate_params(TABLE3_BASE_PARAM, b, b)


def test_point_allocation_disjoint_and_sized(inst_11, inst_22):
    for inst, total in [(inst_11, 110), (inst_22, 112)]:
        data = {pt for fiber in inst.plan.data_points for pt in fiber}
        servers = set(inst.plan.server_points)
        assert len(data) == 25
        assert len(servers) == inst.params.server_count
        assert not data & servers
        assert (0, 0) not in servers
        assert (0, 0) not in data
        assert len(data | servers) == total
        assert len(inst.plan.pool_points) == 99
        # servers drawn from the pool, in pool order
        idx = inst.plan.selected_pool_indices
        assert list(idx) == sorted(idx)
        assert all(inst.plan.pool_points[i] == s for i, s in zip(idx, inst.plan.server_points))


def test_noise_space_counts(inst_11, inst_22):
    assert inst_11.noise_count == 60
    assert inst_22.noise_count == 62


def test_noise_dimension_dims(inst_11, inst_22):
    assert inst_11.sec_dim == 11 and inst_11.priv_dim == 11
    assert inst_22.sec_dim == 12 and inst_22.priv_dim == 12
    assert inst_11.secbase.shape == (85, 11)
    assert inst_11.inv_info.shape == (85, 15)
    f = inst_11.field
    assert (f.mul_arr(inst_11.inv_info, inst_11.b_info) == 1).all()
    assert inst_11.priv_eval.shape == (85, 11)


def test_zero_noise_hooks(inst_11):
    """Shares are files plus storage noise from slot l's space, and
    queries are query noise plus the decoding row on the desired file."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(1)
    files = f.sample_arr(rng, (p.num_files, p.frag_count))
    noise = f.sub_arr(inst_11.encode_storage(files, rng), files[None])
    assert noise.any()
    spaces = [ColumnSpace(f, f.mul_arr(inst_11.inv_info[:, l, None], inst_11.secbase))
              for l in range(p.frag_count)]
    assert all(spaces[l].contains_all(noise[:, :, l]) for l in range(p.frag_count))
    # the slot spaces differ: slot 0's holds no other slot's noise
    assert not any(spaces[0].contains_all(noise[:, :, l]) for l in range(1, p.frag_count))
    queries = inst_11.make_queries(1, rng)
    queries[:, 1, :] = f.sub_arr(queries[:, 1, :], inst_11.b_info)
    assert queries.any()
    assert ColumnSpace(f, inst_11.priv_eval).contains_all(queries.reshape(p.server_count, -1))


def test_server_answer_bilinear(inst_11):
    f = inst_11.field
    rng = np.random.default_rng(2)
    p = inst_11.params
    a = f.sample_arr(rng, (p.num_files, p.frag_count))
    b = f.sample_arr(rng, (p.num_files, p.frag_count))
    g = f.sample_arr(rng, (p.num_files, p.frag_count))
    lhs = inst_11.server_answer(f.add_arr(a, b), g)
    rhs = f.add(inst_11.server_answer(a, g), inst_11.server_answer(b, g))
    assert lhs == rhs
    c = int(rng.integers(1, f.order))
    assert inst_11.server_answer(f.mul_arr(np.int64(c), a), g) == f.mul(c, inst_11.server_answer(a, g))


def test_server_answer_rejects_grids_of_different_shapes(inst_11):
    """One server's share and query grids pair entry by entry, as in
    `all_answers`: a query row or a scalar is refused, not broadcast."""
    p, f = inst_11.params, inst_11.field
    grid = f.sample_arr(np.random.default_rng(9), (p.num_files, p.frag_count))  # (3, 15) at q = 5
    for query in (grid[0], 4):
        with pytest.raises(ValueError, match="one shape with 1 rows"):
            inst_11.server_answer(grid, query)
        with pytest.raises(ValueError, match="one shape with 1 rows"):
            inst_11.server_answer(query, grid)


def test_all_answers_rejects_grids_of_the_wrong_shape(inst_11, monkeypatch):
    """Share and query grids pair row by row, one per server: a different
    count of rows, or share and query grids of different shapes, raise
    before any product runs instead of pairing grids across servers."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(8)
    grids = f.sample_arr(rng, (p.server_count, p.num_files, p.frag_count))
    doubled = f.sample_arr(rng, (2 * p.server_count, p.num_files, p.frag_count))  # (170, 3, 15) at q = 5
    monkeypatch.setattr(scheme_mod, "inner_products", lambda *args: pytest.fail("a product ran"))
    for shares, queries in ((doubled, doubled), (grids[:1], grids[:1]), (grids, grids[:, :, :-1]),
                            (grids, grids.reshape(p.server_count, -1)), (grids[0, 0], grids[0, 0])):
        with pytest.raises(ValueError, match=f"one shape with {p.server_count} rows"):
            inst_11.all_answers(shares, queries)
    monkeypatch.undo()
    expected = [inst_11.server_answer(share, query) for share, query in zip(grids, grids)]
    assert inst_11.all_answers(grids, grids).tolist() == expected


def test_round_trip_many_seeds(inst_11):
    p = inst_11.params
    f = inst_11.field
    for seed in range(12):
        rng = np.random.default_rng(seed)
        files = f.sample_arr(rng, (p.num_files, p.frag_count))
        desired = int(rng.integers(0, p.num_files))
        got = inst_11.retrieve(files, desired, rng)
        assert (got == files[desired]).all()


def test_retrieve_answers_through_the_backend(inst_11):
    """`retrieve` takes its N answers from the backend it is given."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(5)
    files = f.sample_arr(rng, (p.num_files, p.frag_count))
    calls = []

    def backend(shares, queries):
        calls.append((shares.shape, queries.shape))
        return inst_11.all_answers(shares, queries)

    assert (inst_11.retrieve(files, 1, rng, backend) == files[1]).all()
    assert calls == [((p.server_count, p.num_files, p.frag_count),) * 2]

    def one_wrong(shares, queries):
        answers = inst_11.all_answers(shares, queries)
        answers[3] = f.add(int(answers[3]), 1)
        return answers

    with pytest.raises(DecodeError) as err:
        inst_11.retrieve(files, 1, rng, one_wrong)
    assert err.value.server == 3


def test_round_trip_second_config(inst_22):
    p = inst_22.params
    f = inst_22.field
    for seed in range(6):
        rng = np.random.default_rng(seed + 100)
        files = f.sample_arr(rng, (p.num_files, p.frag_count))
        desired = int(rng.integers(0, p.num_files))
        got = inst_22.retrieve(files, desired, rng)
        assert (got == files[desired]).all()


def test_tampered_answers_differ_or_error(inst_11):
    p = inst_11.params
    f = inst_11.field
    outcomes = {"diff": 0, "error": 0, "silent": 0}
    for seed in range(25):
        rng = np.random.default_rng(seed)
        files = f.sample_arr(rng, (p.num_files, p.frag_count))
        desired = int(rng.integers(0, p.num_files))
        shares = inst_11.encode_storage(files, rng)
        queries = inst_11.make_queries(desired, rng)
        answers = inst_11.all_answers(shares, queries)
        k = int(rng.integers(0, p.server_count))
        delta = int(rng.integers(1, f.order))
        answers[k] = f.add(int(answers[k]), delta)
        try:
            got = inst_11.reconstruct(answers)
            if (got == files[desired]).all():
                outcomes["silent"] += 1
            else:
                outcomes["diff"] += 1
        except DecodeError:
            outcomes["error"] += 1
    assert outcomes["silent"] == 0
    assert outcomes["diff"] + outcomes["error"] == 25


def test_single_wrong_answer_is_located(inst_11):
    """A wrong answer at server k adds delta * H[:, k] to the syndrome; at
    q = 5 that column is a multiple of no other, so every server is named."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(41)
    files = f.sample_arr(rng, (p.num_files, p.frag_count))
    shares = inst_11.encode_storage(files, rng)
    answers = inst_11.all_answers(shares, inst_11.make_queries(2, rng))
    assert (inst_11.reconstruct(answers) == files[2]).all()
    check = inst_11.decode_map[p.frag_count :]
    assert check.shape == (p.genus, p.server_count)
    for k in range(p.server_count):
        delta = int(rng.integers(1, f.order))
        tampered = answers.copy()
        tampered[k] = f.add(int(tampered[k]), delta)
        with pytest.raises(DecodeError, match=f"server {k} does not fit") as err:
            inst_11.reconstruct(tampered)
        assert err.value.server == k
        assert err.value.weight == np.count_nonzero(check[:, k]) > 0
    # two wrong answers: still rejected, but no single server explains it
    tampered = answers.copy()
    tampered[[0, 1]] = f.add_arr(tampered[[0, 1]], 1)
    with pytest.raises(DecodeError, match="syndrome weight") as err:
        inst_11.reconstruct(tampered)
    assert err.value.server is None and err.value.weight > 0
    with pytest.raises(DecodeError, match="expected 85 answers"):
        inst_11.reconstruct(answers[:-1])


def test_out_of_range_answers_rejected(inst_11):
    """An answer outside 0..order-1 is not a field element, even when it is
    congruent to the right one: v + order must not decode as v."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(43)
    files = f.sample_arr(rng, (p.num_files, p.frag_count))
    answers = inst_11.all_answers(inst_11.encode_storage(files, rng), inst_11.make_queries(0, rng))
    assert (inst_11.reconstruct(answers) == files[0]).all()
    for k, bad in [(4, int(answers[4]) + f.order), (0, -1), (84, 2**40)]:
        tampered = answers.copy()
        tampered[k] = bad
        with pytest.raises(DecodeError, match=rf"servers \[{k}\] are not field elements 0..24") as err:
            inst_11.reconstruct(tampered)
        assert err.value.server == k and err.value.weight is None
    # ints past int64 name their servers too, not numpy's OverflowError
    for bad in ({3: 2**70}, {3: 2**70, 7: 2**70}, {5: -2**70}):
        tampered = answers.tolist()
        for k, v in bad.items():
            tampered[k] = v
        listed = ", ".join(map(str, bad))
        with pytest.raises(DecodeError, match=rf"servers \[{listed}\] are not field elements 0..24") as err:
            inst_11.reconstruct(tampered)
        assert err.value.server == (next(iter(bad)) if len(bad) == 1 else None)
    # answers of a non-integer dtype are refused, not truncated to integers
    for bad in (answers + 0.4, answers.astype(np.float64)):
        with pytest.raises(DecodeError, match="are not field elements 0..24") as err:
            inst_11.reconstruct(bad)
        assert err.value.server is None
    tampered = answers.tolist()
    tampered[6] = 3.0
    with pytest.raises(DecodeError, match=r"servers \[6\] are not field elements 0..24") as err:
        inst_11.reconstruct(np.array(tampered, dtype=object))
    assert err.value.server == 6

    def shifted(shares, queries):
        return inst_11.all_answers(shares, queries) + f.order

    with pytest.raises(DecodeError, match="not field elements") as err:
        inst_11.retrieve(files, 0, rng, shifted)
    assert err.value.server is None


def encode_storage_oracle(inst, files, rng) -> np.ndarray:
    """The per-slot encoder: slot l draws its coefficients, then its shares
    are files[:, l] plus (inv_info[:, l] * secbase) @ coefficients."""
    p, f = inst.params, inst.field
    shares = np.zeros((p.server_count, p.num_files, p.frag_count), dtype=np.int64)
    for l in range(p.frag_count):
        coeffs = f.sample_arr(rng, (inst.sec_dim, p.num_files))
        sec_eval = f.mul_arr(inst.inv_info[:, l : l + 1], inst.secbase)
        shares[:, :, l] = f.add_arr(files[None, :, l], f.matmul_arr(sec_eval, coeffs))
    return shares


@pytest.mark.parametrize("q", [5, 7, 8])
@pytest.mark.parametrize("num_files", [1, 3])
def test_encode_storage_matches_per_slot_oracle(q, num_files):
    inst = build_instance(validate_params(q, 1, 1, num_files=num_files))
    p, f = inst.params, inst.field
    for seed in range(3):
        files = f.sample_arr(np.random.default_rng(seed), (p.num_files, p.frag_count))
        rng, rng_oracle = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        got = inst.encode_storage(files, rng)
        want = encode_storage_oracle(inst, files, rng_oracle)
        assert got.shape == (p.server_count, p.num_files, p.frag_count) and got.dtype == np.int64
        assert (got == want).all()
        # the same stream was consumed: the next draw agrees
        assert rng.integers(0, 2**62) == rng_oracle.integers(0, 2**62)


def test_protocol_arrays_share_no_memory(inst_11):
    """encode_storage and make_queries hand out new arrays: none shares
    memory with the instance, the files or the previous call's result, so
    callers may keep and modify what they were given."""
    p, f = inst_11.params, inst_11.field
    rng = np.random.default_rng(3)
    held = [v for v in vars(inst_11).values() if isinstance(v, np.ndarray)]
    assert len(held) >= 8
    files = f.sample_arr(rng, (p.num_files, p.frag_count))
    shares = [inst_11.encode_storage(files, rng) for _ in range(2)]
    queries = [inst_11.make_queries(1, rng) for _ in range(2)]
    for got in shares + queries:
        assert not any(np.shares_memory(got, arr) for arr in held + [files])
    assert not np.shares_memory(*shares) and not np.shares_memory(*queries)
    assert not np.shares_memory(shares[1], queries[0])
    # modifying a result changes nothing the next retrieval reads
    before = inst_11.retrieve(files, 2, np.random.default_rng(9))
    shares[1][:] = 0
    queries[1][:] = 0
    assert (inst_11.retrieve(files, 2, np.random.default_rng(9)) == before).all()


def test_fixed_matrices_and_prepared_forms_are_read_only(inst_11):
    for name in ("secbase", "priv_eval", "decode_map", "_secbase_digits", "_priv_digits", "_decode_digits"):
        arr = getattr(inst_11, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def noise_containment_oracle(inst, rng, per_family: int) -> bool:
    """The per-sample containment check: each sample's slot and coefficients
    drawn in turn, each vector tested on its own."""
    f = inst.field
    space = ColumnSpace(f, inst.b_noise)
    for _ in range(per_family):
        l = int(rng.integers(0, inst.params.frag_count))
        sec_eval = f.mul_arr(inst.inv_info[:, l : l + 1], inst.secbase)
        z = f.matmul_arr(sec_eval, f.sample_arr(rng, (inst.sec_dim, 1)))[:, 0]
        r = f.matmul_arr(inst.priv_eval, f.sample_arr(rng, (inst.priv_dim, 1)))[:, 0]
        if not all(space.contains(v) for v in (f.mul_arr(z, inst.b_info[:, l]), r, f.mul_arr(z, r))):
            return False
    return True


def test_noise_containment_matches_per_sample_oracle(monkeypatch):
    # x_sec != t_priv, so storage and query coefficients differ in count
    inst = build_instance(validate_params(5, 1, 2, num_files=1))
    assert inst.sec_dim != inst.priv_dim
    for built in (inst, build_instance(validate_params(5, 2, 2, num_files=1))):
        assert built._noise_containment_ok()
        assert noise_containment_oracle(built, np.random.default_rng(3), 40)
    # the oracle has teeth: a noise space short of columns loses some samples
    full = inst.b_noise
    verdicts = []
    for drop in (1, 5, 20):
        monkeypatch.setattr(inst, "b_noise", full[:, :-drop])
        verdicts += [noise_containment_oracle(inst, np.random.default_rng(seed), 3) for seed in range(3)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("q, x_sec, t_priv", [(5, 1, 1), (5, 2, 2), (5, 1, 2), (7, 1, 1)])
def test_decode_map_annihilates_every_cross_term(q, x_sec, t_priv):
    """The exact property the certificate vouches for: decoder and parity
    check vanish on spanning sets of all three cross-term families."""
    inst = build_instance(validate_params(q, x_sec, t_priv, num_files=1))
    f = inst.field
    products = np.stack(
        [fn.evaluate_many(inst.plan.server_points) for fn in one_point_basis(inst.curve, inst.sec_pole + inst.priv_pole)],
        axis=1,
    )
    family_3 = f.mul_arr(inst.inv_info[:, :, None], products[:, None, :]).reshape(inst.params.server_count, -1)
    cross = np.concatenate([inst.secbase, inst.priv_eval, family_3], axis=1)
    assert family_3.shape[1] == inst.params.frag_count * (x_sec + t_priv + 3 * inst.params.genus - 1)
    assert not f.matmul_arr(inst.decode_map, cross).any()


def test_noise_containment_certificate_mutations(inst_11, monkeypatch):
    assert inst_11._noise_containment_ok()
    a, b = inst_11.noise_bounds
    # both bounds are tight
    for bounds in [(a - 1, b), (a, b - 1)]:
        monkeypatch.setattr(inst_11, "noise_bounds", bounds)
        assert not inst_11._noise_containment_ok()
    monkeypatch.undo()
    # the first decoding function given an extra affine zero off the origin:
    # the same valuations at infinity and the origin, a new pole of 1/h_0
    curve = inst_11.curve
    h = inst_11.info_fns[0]
    c = next(x for x, _ in inst_11.plan.server_points if x)
    mutated = CurveFunction(
        curve,
        curve.poly_mul(h.num, curve.linear_factor(c)),
        curve.poly_mul(h.den, curve.linear_factor(inst_11.plan.alphas[0])),
    )
    assert mutated.valuation_at_infinity() == h.valuation_at_infinity()
    assert mutated.valuation_at_origin() == h.valuation_at_origin()
    monkeypatch.setattr(inst_11, "info_fns", [mutated] + inst_11.info_fns[1:])
    assert not inst_11._noise_containment_ok()
    monkeypatch.undo()
    assert inst_11._noise_containment_ok()


def test_file_shape_validation(inst_11):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="shape"):
        inst_11.encode_storage(np.zeros((2, 15), dtype=np.int64), rng)
    with pytest.raises(ValueError, match="encodings"):
        inst_11.encode_storage(np.full((3, 15), 99, dtype=np.int64), rng)
    with pytest.raises(ValueError, match="out of range"):
        inst_11.make_queries(3, rng)


def test_certify_instance_bounds_and_ranks(inst_11, inst_22):
    rep = certify_instance(inst_11)
    assert rep.all_ok
    assert set(rep.storage_dual_bounds) == {2}
    assert rep.query_dual_bound == 2
    assert rep.noise_rank == 60
    assert rep.total_rank == 75 == rep.rank_certificate
    assert rep.prefix_unique and rep.noise_containment
    assert float(rep.rate) == pytest.approx(15 / 85)
    rep2 = certify_instance(inst_22)
    assert rep2.all_ok
    assert set(rep2.storage_dual_bounds) == {3}
    assert rep2.query_dual_bound == 3
    assert rep2.total_rank == 77 == rep2.rank_certificate
    d = rep2.to_dict()
    json.dumps(d)
    assert d["all_ok"] is True and d["fallback_used"] is False


@pytest.mark.parametrize("q, x_t", [(5, 2), (7, 1)])
def test_certify_family_matches_per_slot_codes(slot_storage_code, q, x_t):
    instance = build_instance(validate_params(q, x_t, x_t))
    rep = certify_instance(instance)
    widths = range(1, min(x_t, 2) + 1)
    per_slot = [(w, check_w_wise_independence(slot_storage_code(instance, l), w)[0])
                for l in range(instance.params.frag_count) for w in widths]
    bounds = [dual_distance_bound(slot_storage_code(instance, l))
              for l in range(instance.params.frag_count)]
    assert rep.storage_independence == per_slot
    assert rep.storage_dual_bounds == bounds


def test_certify_fails_slot_with_zero_scale():
    instance = build_instance(validate_params(5, 1, 1))
    assert certify_instance(instance).all_ok
    instance.inv_info[4, 3] = 0
    rep = certify_instance(instance)
    assert [ok for _, ok in rep.storage_independence] == [l != 3 for l in range(instance.params.frag_count)]
    assert not rep.all_ok


def test_query_marginal_uniform_chi_square(inst_11):
    # one query entry, viewed by a single server, over fresh randomness:
    # indistinguishable from uniform whatever the desired index
    stats = []
    for desired in (0, 1):
        vals = inst_11.query_marginal_samples(
            server=7, file_index=1, frag_index=3, desired_index=desired, trials=10_000, seed=5
        )
        stats.append(chi_square_uniform_stat(vals, 25))
    threshold = scipy.stats.chi2.ppf(0.999, df=24)
    assert all(s < threshold for s in stats), stats
    # support is the full field
    assert set(int(v) for v in vals) == set(range(25))


def test_share_marginal_uniform_chi_square(inst_11):
    vals = inst_11.share_marginal_samples(
        server=3, frag_index=2, fragment_value=17, trials=10_000, seed=6
    )
    stat = chi_square_uniform_stat(vals, 25)
    assert stat < scipy.stats.chi2.ppf(0.999, df=24)


def test_manifest_json_round_trip(inst_11):
    m = inst_11.manifest()
    text = json.dumps(m, sort_keys=True)
    back = json.loads(text)
    assert back == json.loads(json.dumps(m, sort_keys=True))
    assert back["params"]["server_count"] == 85
    assert back["noise"] == {"count": 60, "complete": True, "fallback_used": False}
    assert len(back["server_points"]) == 85
    assert back["pool_size"] == 99


def test_demo_transcript_deterministic():
    a = run_pir_demo(5, 1, 1, 3, seed=7, trials=5)
    b = run_pir_demo(5, 1, 1, 3, seed=7, trials=5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_pir_demo(5, 1, 1, 3, seed=8, trials=5)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)
    assert a["successes"] == 5


def test_incomplete_noise_set_fails_build(monkeypatch):
    # a monomial set short of the Riemann-Roch dimension is a hard error:
    # there is no fallback noise set
    real = scheme_mod.two_point_monomial_set

    def truncated(curve, infty_bound, origin_bound):
        fns, _ = real(curve, infty_bound, origin_bound)
        return fns[:-4], False

    monkeypatch.setattr(scheme_mod, "two_point_monomial_set", truncated)
    with pytest.raises(ValueError, match="do not span the noise space"):
        build_instance(validate_params(5, 1, 1, num_files=2))


def test_failed_certificate_fails_build(monkeypatch):
    monkeypatch.setattr(scheme_mod.SchemeInstance, "_noise_containment_ok", lambda self: False)
    with pytest.raises(ValueError, match="not certified"):
        build_instance(validate_params(5, 1, 1, num_files=2))


def test_build_deterministic(inst_11):
    inst_b = build_instance(validate_params(5, 1, 1, num_files=3))
    assert inst_b.plan.server_points == inst_11.plan.server_points
    assert (inst_b.b_info == inst_11.b_info).all()
    assert (inst_b.b_noise == inst_11.b_noise).all()


def test_rate_property():
    p = validate_params(5, 1, 1)
    assert p.rate.numerator == 3 and p.rate.denominator == 17  # 15/85 reduced
    assert SchemeParams(5, 1, 1, 5, 1, 10, 15, 85).rate == p.rate


@functools.cache
def _built(params: SchemeParams):
    """The instance for `params` and its certify verdict, built once."""
    inst = build_instance(params)
    return inst, certify_instance(inst).all_ok


@st.composite
def _layouts(draw):
    q = draw(st.sampled_from((4, 5, 7, 8, 9)))
    x, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # the largest m the point supply admits, or the one past it, half the time
    edge = (q**3 + 1 - x - t - 3 * q * q + q) // (2 * q)
    m = draw(st.one_of(st.integers(q - 1, q * q - 1),
                       st.sampled_from([max(q - 1, edge), max(q - 1, edge + 1)])))
    return q, x, t, m, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_layouts(), st.integers(0, 2**32 - 1))
# the layout that uses the q = 5 point supply exactly, and one point past it
@example((5, 3, 3, 5, 1), 0)
@example((5, 4, 3, 5, 1), 0)
def test_feasible_parameter_space(layout, seed):
    """Every accepted (q, x, t, m, files) builds, certifies, decodes a
    seeded retrieval and rejects one wrong answer, naming its server when
    no other parity-check column is a multiple of that server's; every
    refused one breaks the point supply."""
    q, x, t, m, files = layout
    genus = q * (q - 1) // 2
    # L = mq - g lies in [g, q^3 - g] for q - 1 <= m <= q^2 - 1, and L + g
    # = mq: the point supply is the only constraint a drawn layout can break
    supply_ok = q**3 + 1 >= 2 * (m * q - genus) + x + t + 4 * q * q - 2 * q
    try:
        params = validate_params(q, x, t, fiber_count=m, num_files=files)
    except InfeasibleParams as exc:
        assert not supply_ok and exc.violated == "point-supply"
        return
    assert supply_ok
    inst, certified = _built(params)
    assert certified
    field, rng = inst.field, np.random.default_rng(seed)
    data = field.sample_arr(rng, (files, params.frag_count))
    desired = int(rng.integers(files))
    assert (inst.retrieve(data, desired, rng) == data[desired]).all()

    answers = inst.all_answers(inst.encode_storage(data, rng), inst.make_queries(desired, rng))
    server = int(rng.integers(params.server_count))
    answers[server] = field.add(int(answers[server]), int(rng.integers(1, field.order)))
    with pytest.raises(DecodeError) as caught:
        inst.reconstruct(answers)
    check = inst.decode_map[params.frag_count :]
    column = check[:, server]
    i = int(np.flatnonzero(column)[0])
    scale = field.mul_arr(check[i], field.inv(int(column[i])))
    multiples = (field.mul_arr(column[:, None], scale[None, :]) == check).all(axis=0) & (scale != 0)
    assert caught.value.server == (server if multiples.sum() == 1 else None)
