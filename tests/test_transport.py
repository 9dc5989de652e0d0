"""Socket transport: framing, element serialization, end-to-end parity."""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermipir import scheme, transport
from hermipir.fields import field_of_order
from hermipir.scheme import run_pir_demo
from hermipir.transport import (
    MAX_FRAME_BYTES,
    WorkerPool,
    decode_elements,
    encode_elements,
    read_answer,
    recv_frame,
    run_demo_over_sockets,
    send_frame,
    serve_connection,
)


def test_frame_round_trip():
    left, right = socket.socketpair()
    with left, right:
        send_frame(left, {"kind": "STORE", "server": 3, "elements": [[1, 2]]})
        send_frame(left, {"kind": "QUERY", "server": 3, "elements": []})
        assert recv_frame(right)["kind"] == "STORE"
        second = recv_frame(right)
        assert second == {"kind": "QUERY", "server": 3, "elements": []}
        left.close()
        assert recv_frame(right) is None


def test_truncated_frame_raises():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(b"\x00\x00\x00\x10{\"kind")  # announces 16 bytes, sends 6
        left.close()
        with pytest.raises(ConnectionError):
            recv_frame(right)


def test_oversized_frame_rejected():
    left, right = socket.socketpair()
    with left, right:
        # a header announcing one byte past the cap is refused before any
        # body is read
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ValueError, match="cap"):
            recv_frame(right)
        with pytest.raises(ValueError, match="cap"):
            send_frame(left, {"kind": "STORE", "elements": "x" * MAX_FRAME_BYTES})


def test_bad_element_digits_rejected():
    field = field_of_order(25)
    left, right = socket.socketpair()
    with left, right:
        send_frame(left, {"kind": "QUERY", "server": 0, "elements": [[1, 2], [4, 5]]})
        msg = recv_frame(right)
    with pytest.raises(ValueError, match=r"0\.\.4"):
        decode_elements(field, msg["elements"])
    with pytest.raises(ValueError, match=r"0\.\.4"):
        decode_elements(field, [[-1, 0]])
    for bad in ([[1, 2, 0]], [[1]], [[1, 2], [3]], [[1.0, 2.0]], [[1, 2], [0, 3.0]],
                [1, 2], [[1, 2], 7], [[1, 2], "12"], [[True, 1]], [[1, 2], [0, False]]):
        with pytest.raises(ValueError):
            decode_elements(field, bad)
    # digits past int64 are malformed, not an OverflowError
    for bad in ([[2**63, 1]], [[1, 2], [0, -(2**64)]]):
        with pytest.raises(ValueError, match="integer digits"):
            decode_elements(field, bad)
    assert decode_elements(field, []).shape == (0,)


def test_element_codec_round_trip():
    field = field_of_order(25)
    grid = np.arange(25, dtype=np.int64).reshape(5, 5)
    wire = encode_elements(field, grid)
    assert len(wire) == 25
    # little-endian base-p coefficient tuples, one per element
    assert all(len(cs) == 2 and all(0 <= c < 5 for c in cs) for cs in wire)
    back = decode_elements(field, wire, (5, 5))
    assert (back == grid).all()
    # the array digit split matches a per-element coefficient loop
    rng = np.random.default_rng(4)
    for order in (25, 49, 64, 81, 121):
        field = field_of_order(order)
        for shape in ((0,), (3, 0), (4, 7), (6, 3, 5)):
            grid = field.sample_arr(rng, shape)
            oracle = [list(field.coeffs(int(v))) for v in grid.reshape(-1)]
            assert json.dumps(encode_elements(field, grid)) == json.dumps(oracle)


def test_socket_demo_matches_in_process_demo():
    """Moving the inner products behind sockets must not change anything:
    same successes, same per-trial transcript, same rate."""
    over_sockets = run_demo_over_sockets(5, 1, 1, 2, seed=11, trials=3,
                                         workers=3)
    local = run_pir_demo(5, 1, 1, 2, seed=11, trials=3)
    assert over_sockets["successes"] == local["successes"] == 3
    assert over_sockets["results"] == local["results"]
    assert over_sockets["rate"] == local["rate"]
    assert over_sockets["config"] == local["config"]


def test_worker_pool_is_smaller_than_server_count():
    transcript = run_demo_over_sockets(5, 1, 1, 1, seed=2, trials=1,
                                       workers=4)
    assert transcript["workers"] == 4
    assert transcript["params"]["server_count"] == 85
    assert transcript["successes"] == 1


def test_socket_demo_answers_only_over_sockets(monkeypatch):
    def in_process(*args):
        raise AssertionError("answered in process")

    monkeypatch.setattr(scheme.SchemeInstance, "all_answers", in_process)
    assert run_demo_over_sockets(5, 1, 1, 1, seed=2, trials=2, workers=2)["successes"] == 2


F25 = field_of_order(25)
GOOD_STORE = {"kind": "STORE", "server": 4, "shape": [1, 2], "elements": [[1, 0], [0, 1]]}


def _serve_in_thread():
    """A worker loop on one end of a socketpair; returns (client end, thread)."""
    client, worker = socket.socketpair()
    client.settimeout(10)  # a worker that died fails the test instead of hanging it
    thread = threading.Thread(target=lambda: (serve_connection(worker, F25), worker.close()))
    thread.start()
    return client, thread


@pytest.mark.parametrize("frame, message", [
    ({"kind": "FETCH", "server": 4}, "unknown frame kind 'FETCH'"),
    ({"server": 4, "elements": []}, "unknown frame kind None"),
    (["STORE", 4], "unknown frame kind None"),
    ({"kind": "QUERY", "server": "4", "elements": [[1, 0], [0, 1]]}, "server must be an int"),
    ({"kind": "QUERY", "server": True, "elements": [[1, 0], [0, 1]]}, "server must be an int"),
    ({"kind": "STORE", "server": 4.0, "shape": [1, 2], "elements": [[1, 0], [0, 1]]}, "server must be an int"),
    ({"kind": "QUERY", "server": 5, "elements": [[1, 0], [0, 1]]}, "server 5, which has no stored shares"),
    ({"kind": "STORE", "server": 6, "shape": "1x2", "elements": [[1, 0], [0, 1]]}, "shape must be a list"),
    ({"kind": "STORE", "server": 6, "shape": [2, -1], "elements": [[1, 0], [0, 1]]}, "shape must be a list"),
    ({"kind": "STORE", "server": 6, "shape": [1.0, 2], "elements": [[1, 0], [0, 1]]}, "shape must be a list"),
    ({"kind": "STORE", "server": 6, "shape": [3], "elements": [[1, 0], [0, 1]]}, "reshape"),
])
def test_worker_answers_bad_frame_with_error(frame, message):
    """A rejected frame gets an ERROR frame, the worker keeps serving, and
    the client's answer reader raises ConnectionError with the message."""
    client, thread = _serve_in_thread()
    with client:
        send_frame(client, GOOD_STORE)
        send_frame(client, frame)
        with pytest.raises(ConnectionError, match=message):
            read_answer(client, 4)
        # the stored grid survives: the next query is answered
        send_frame(client, {"kind": "QUERY", "server": 4, "elements": [[1, 0], [1, 0]]})
        assert decode_elements(F25, [read_answer(client, 4)])[0] == F25.add(1, 5)
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_read_answer_rejects_reply_for_another_server():
    client, thread = _serve_in_thread()
    with client:
        send_frame(client, GOOD_STORE)
        send_frame(client, {"kind": "QUERY", "server": 4, "elements": [[1, 0], [0, 1]]})
        with pytest.raises(ConnectionError, match="bad reply for server 3"):
            read_answer(client, 3)
    thread.join(timeout=10)


@pytest.mark.parametrize("body, message", [
    (b"{bad}", "Expecting property name"),
    (b"\xff\xfe{}", "utf-8"),
    (b"", "Expecting value"),
    (b"[" * 100_000, "nests too deeply"),
])
def test_worker_answers_unparsable_body_with_error(body, message):
    """A well-framed body that is not UTF-8 JSON gets an ERROR frame, and
    the worker keeps serving."""
    client, thread = _serve_in_thread()
    with client:
        send_frame(client, GOOD_STORE)
        client.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ConnectionError, match=message):
            read_answer(client, 4)
        send_frame(client, {"kind": "QUERY", "server": 4, "elements": [[1, 0], [1, 0]]})
        assert decode_elements(F25, [read_answer(client, 4)])[0] == F25.add(1, 5)
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_worker_stops_on_oversized_header():
    """Past the cap the frame boundary is lost: the worker loop ends with
    ValueError and sends nothing back."""
    client, worker = socket.socketpair()
    with client, worker:
        client.settimeout(10)
        client.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ValueError, match="cap"):
            serve_connection(worker, F25)
        worker.close()
        assert client.recv(16) == b""


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
frame_bodies = st.one_of(
    st.binary(max_size=40),
    json_values.map(lambda v: json.dumps(v).encode("utf-8")),
    st.fixed_dictionaries({"kind": st.sampled_from(["STORE", "QUERY", "ANSWER"]), "server": json_values})
    .map(lambda v: json.dumps(v).encode("utf-8")),
)
wire_pieces = st.one_of(
    frame_bodies.map(lambda body: struct.pack(">I", len(body)) + body),  # well framed
    st.binary(max_size=12),                                              # anything at all
)


@settings(max_examples=200, deadline=None)
@given(st.lists(wire_pieces, max_size=4))
def test_recv_frame_fuzz(pieces):
    """Whatever a peer sends, recv_frame returns dicts until None, or raises
    ConnectionError or ValueError."""
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(10)
        left.sendall(b"".join(pieces))
        left.close()
        try:
            while (msg := recv_frame(right)) is not None:
                assert isinstance(msg, dict)
        except (ConnectionError, ValueError):
            pass


nested_lists = st.recursive(
    st.integers() | st.booleans() | st.floats() | st.text(max_size=3) | st.none(),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=16,
)


digit_rows = st.lists(st.lists(st.integers(-2, 8) | st.floats(0, 8) | st.booleans(), max_size=4), max_size=4)

# in-range digits of every field's length, some of them bools, which numpy
# would promote to 0 and 1 alongside the ints
bool_int_rows = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2) | st.booleans(), min_size=n, max_size=n), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([7, 25, 27]), nested_lists | digit_rows | bool_int_rows)
def test_decode_elements_fuzz(order, elements):
    """Any nested list decodes to valid encodings or raises ValueError."""
    field = field_of_order(order)
    try:
        vals = decode_elements(field, elements)
    except ValueError:
        return
    # only tuples of n integer digits in 0..p-1 decode, to the value they spell
    for e in elements:
        assert len(e) == field.n and all(type(d) is int and 0 <= d < field.p for d in e)
    assert vals.dtype == np.int64
    assert vals.tolist() == [sum(int(d) * field.p**k for k, d in enumerate(e)) for e in elements]


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_pool_connections_disable_nagle():
    with WorkerPool(F25, 5, 3) as pool:
        assert len(pool.conns) == 3
        assert all(_nodelay(conn) for conn in pool.conns)


def test_worker_disables_nagle_on_accepted_connection(monkeypatch):
    seen = []
    monkeypatch.setattr(transport, "serve_connection", lambda conn, field: seen.append(_nodelay(conn)))
    listener = socket.create_server(("127.0.0.1", 0))
    worker = threading.Thread(target=transport.serve_worker, args=(listener, 25))
    worker.start()
    with socket.create_connection(listener.getsockname()):
        worker.join()
    assert len(seen) == 1 and seen[0]


def test_pool_times_out_on_hung_worker(monkeypatch):
    """A worker that never replies makes the pool raise after the reply
    timeout instead of blocking; exiting still ends the worker."""
    monkeypatch.setattr(transport, "_handle_frame", lambda *args: time.sleep(600))
    monkeypatch.setattr(transport, "REPLY_TIMEOUT_S", 0.5)
    grid = np.zeros((2, 1, 1), dtype=np.int64)
    start = time.perf_counter()
    with pytest.raises(TimeoutError):
        with WorkerPool(F25, 2, 1) as pool:
            pool.answers(grid, grid)
    assert time.perf_counter() - start < 30
    assert pool.procs and not any(proc.is_alive() for proc in pool.procs)
