"""Socket transport: framing, element serialization, end-to-end parity."""

import hashlib
import json
import re
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


def test_encode_elements_rejects_values_outside_the_field():
    """A value outside 0..order-1 is no element: it raises instead of going
    out as another element's digits, and a negative one does not index the
    element texts from the end."""
    field = field_of_order(25)
    for bad in ([-1], [25], [26], [[0, 1], [-1, 3]], np.array([3, 2**40])):
        with pytest.raises(ValueError, match=r"0\.\.24"):
            encode_elements(field, bad)
        with pytest.raises(ValueError, match=r"0\.\.24"):
            transport._grid_texts(field, [bad])
    assert encode_elements(field, [0, 24]) == [[0, 0], [4, 4]]


def test_element_table_is_read_only():
    """The cached table and lengths serve every later frame of the process,
    so an in-place write raises instead of corrupting them."""
    table, lengths = transport._element_table(field_of_order(25))
    with pytest.raises(ValueError, match="read-only"):
        table[0] = b"[9, 9], "
    with pytest.raises(ValueError, match="read-only"):
        lengths += 1
    assert table[0] == b"[0, 0], " and (lengths == 8).all()


@pytest.mark.parametrize("order", [25, 49, 64, 81, 121, 169, 289, 361])
def test_rendered_bodies_equal_sorted_json(order):
    """STORE, QUERY and ANSWER bodies joined from cached element texts are
    the bytes ``json.dumps(payload, sort_keys=True)`` gives.  From GF(121)
    on, digits past 9 make element texts of different widths, such as
    ``[0, 3]`` and ``[16, 16]`` at GF(289)."""
    field = field_of_order(order)
    rng = np.random.default_rng(order)
    oracle = lambda payload: json.dumps(payload, sort_keys=True).encode()
    narrow, wide = 3 * field.p, field.order - 1  # [0, 3] and [p - 1, p - 1]
    mixed = np.array([[narrow, wide, 0, wide, narrow], [wide, wide, narrow, narrow, 1], [0] * 5])
    for grids in (*(field.sample_arr(rng, shape) for shape in ((4, 0), (4, 1, 0), (3, 7), (5, 3, 15), (2, 4, 3, 2))),
                  mixed, mixed.reshape(3, 5, 1)):
        texts = transport._grid_texts(field, grids)
        assert len(texts) == len(grids)
        for grid, text in zip(grids, texts):
            server = int(rng.integers(0, 10**6))
            elements = encode_elements(field, grid)
            assert transport._store_body(server, grid.shape, text) == oracle(
                {"kind": "STORE", "server": server, "shape": list(grid.shape), "elements": elements})
            assert transport._query_body(server, text) == oracle(
                {"kind": "QUERY", "server": server, "elements": elements})
    assert transport._grid_texts(field, np.zeros((0, 3), dtype=np.int64)) == []
    for value in (0, 1, field.order - 1, *rng.integers(0, field.order, 8).tolist()):
        server = int(rng.integers(-5, 10**6))
        assert transport._answer_body(field, server, value) == oracle(
            {"kind": "ANSWER", "server": server, "element": list(field.coeffs(value))})


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


# sha256 of (bytes sent, bytes received) on each client connection, in the
# order the client first writes to them, for the socket demo below.  Recorded
# before frames were built from cached element text and the worker batched
# its reads and replies: the bytes on the wire must not change.
WIRE_GOLDEN = [
    ("776e6d37bf86e6e9c660c6b319edffbb20d4dd43ce2d6d74b9334da890867a57",
     "40d51c3d992fd8fa78726c340628360f8601a83607644f69b64f967bed5560a0"),
    ("fe8aae28c31a29d2df3b27ca173400c015ad87c69277a1c08896f91c8b178973",
     "016625c8d932678030331ec3fbfa0768d63c5b50f81251ca38e2ad60a3de1367"),
]


def test_socket_demo_wire_golden(monkeypatch):
    sent: dict = {}
    received: dict = {}
    sendall, recv = socket.socket.sendall, socket.socket.recv

    def recording_sendall(sock, data, *args):
        sent.setdefault(sock, bytearray()).extend(data)
        return sendall(sock, data, *args)

    def recording_recv(sock, *args):
        chunk = recv(sock, *args)
        received.setdefault(sock, bytearray()).extend(chunk)
        return chunk

    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
    monkeypatch.setattr(socket.socket, "recv", recording_recv)
    transcript = run_demo_over_sockets(5, 1, 1, 3, seed=29, trials=3, workers=2)
    monkeypatch.undo()
    assert transcript["successes"] == 3
    digests = [(hashlib.sha256(sent[conn]).hexdigest(), hashlib.sha256(received[conn]).hexdigest())
               for conn in sent]
    assert digests == WIRE_GOLDEN


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


def read_answer(sock: socket.socket, server: int) -> list:
    """The reference client read: the coefficient tuple of `server`'s
    ANSWER, the next frame on `sock`.  Raises ConnectionError on an ERROR
    frame or any other reply."""
    msg = recv_frame(sock)
    if msg is not None and msg.get("kind") == "ERROR":
        raise ConnectionError(f"worker error: {msg.get('message')}")
    # a bool or float server is not an int, though True and 1.0 equal 1
    if (msg is None or msg.get("kind") != "ANSWER" or type(msg.get("server")) is not int
            or msg["server"] != server or "element" not in msg):
        raise ConnectionError(f"bad reply for server {server}: {msg}")
    return msg["element"]


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


def test_worker_answers_error_that_would_outgrow_the_cap(monkeypatch):
    """A rejected value is quoted in part: JSON escaping grows a backslash
    string's repr from 6 to 8 bytes, so quoting a whole shape of them would
    put the ERROR body over the cap and end the worker."""
    monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 4096)
    frame = {"kind": "STORE", "server": 6, "shape": ["\\"] * 600, "elements": []}
    body = json.dumps(frame, sort_keys=True).encode()
    assert len(body) <= 4096 < len(json.dumps({"message": repr(frame["shape"])}))
    message = "STORE shape must be a list of non-negative ints, got " + repr(frame["shape"])[:64] + "..."
    client, thread = _serve_in_thread()
    with client:
        send_frame(client, frame)
        with pytest.raises(ConnectionError, match=re.escape(f"worker error: {message}") + "$"):
            read_answer(client, 4)
        send_frame(client, GOOD_STORE)
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
    # a server that only compares equal to 1, and an ANSWER with no element
    for reply in ({"kind": "ANSWER", "server": True, "element": [1, 0]},
                  {"kind": "ANSWER", "server": 1.0, "element": [1, 0]},
                  {"kind": "ANSWER", "server": 1}):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, reply)
            with pytest.raises(ConnectionError, match="bad reply for server 1"):
                read_answer(right, 1)


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


def _wire(*payloads) -> bytes:
    """The frames of `payloads`; a bytes payload is a raw body."""
    bodies = [p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode() for p in payloads]
    return b"".join(struct.pack(">I", len(body)) + body for body in bodies)


def _replies(sock: socket.socket) -> list[dict]:
    """Every frame `sock` receives until the peer closes."""
    out = []
    while (msg := recv_frame(sock)) is not None:
        out.append(msg)
    return out


QUERY_4 = {"kind": "QUERY", "server": 4, "elements": [[1, 0], [1, 0]]}
ANSWER_4 = {"kind": "ANSWER", "server": 4, "element": [1, 1]}  # 1·1 + 5·1 = 1 + t


class _Trickle:
    """A connection stand-in: `recv` hands out `data` `step` bytes at a time
    and then b"" (a close), and each `sendall` is kept."""

    def __init__(self, data: bytes, step: int):
        self.data, self.step, self.pos, self.writes = data, step, 0, []

    def recv(self, size: int) -> bytes:
        chunk = self.data[self.pos : self.pos + min(size, self.step)]
        self.pos += len(chunk)
        return chunk

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))


def test_worker_answers_a_batch_in_order_with_one_write():
    """Frames that arrive in one write are all handled, in order; a
    malformed frame among them gets its ERROR in its place, and the
    replies go back in one write."""
    conn = _Trickle(_wire(GOOD_STORE, QUERY_4, b"{bad}", {"kind": "FETCH"}, QUERY_4), step=2**20)
    serve_connection(conn, F25)
    assert len(conn.writes) == 1
    left, right = socket.socketpair()
    with left, right:
        left.sendall(conn.writes[0])
        left.close()
        replies = _replies(right)
    assert [r["kind"] for r in replies] == ["ANSWER", "ERROR", "ERROR", "ANSWER"]
    assert replies[0] == replies[3] == ANSWER_4
    assert "Expecting property name" in replies[1]["message"]
    assert replies[2]["message"] == "unknown frame kind 'FETCH'"


def _served(wire: bytes, field, step: int = 2**20) -> list[bytes]:
    """The writes of a worker that reads `wire` `step` bytes at a time."""
    conn = _Trickle(wire, step)
    serve_connection(conn, field)
    return conn.writes


def _served_by_json_reader(wire: bytes, field, step: int = 2**20) -> list[bytes]:
    """`_served` with the canonical reader stubbed out, so that every body
    goes through the JSON reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_read_canonical", lambda *args: None)
        return _served(wire, field, step)


def _canonical_body(field, payload: dict) -> bytes:
    """The client's rendering of a STORE or QUERY payload whose elements are
    encodings."""
    text = transport._grid_texts(field, np.array(payload["elements"], dtype=np.int64).reshape(1, -1))[0]
    if payload["kind"] == "STORE":
        return transport._store_body(payload["server"], tuple(payload["shape"]), text)
    return transport._query_body(payload["server"], text)


@st.composite
def canonical_streams(draw):
    """A field and a random STORE/QUERY stream over it, as payloads whose
    elements are encodings; a QUERY is sized to its server's stored grid."""
    # n = 1, 4, 2, 3, 6, 4; from 11 on, element texts differ in width (n = 1, 2, 2)
    field = field_of_order(draw(st.sampled_from([7, 16, 25, 27, 64, 81, 11, 121, 169])))
    values = lambda count: draw(st.lists(st.integers(0, field.order - 1), min_size=count, max_size=count))
    sizes: dict[int, int] = {}
    payloads = []
    for _ in range(draw(st.integers(1, 6))):
        server = draw(st.integers(0, 3))
        if server in sizes and draw(st.booleans()):
            payloads.append({"kind": "QUERY", "server": server, "elements": values(sizes[server])})
        else:
            shape = draw(st.lists(st.integers(0, 3), max_size=3))
            sizes[server] = int(np.prod(shape))
            payloads.append({"kind": "STORE", "server": server, "shape": shape, "elements": values(sizes[server])})
    return field, payloads


def _edited_body(draw, field, payload: dict) -> bytes:
    """The body of `payload` after one drawn edit: an extra space, a byte
    replaced, reordered keys, a non-canonical digit or server, the digit p,
    a wrong element count, an unknown server or an empty grid."""
    edit = draw(st.sampled_from(["space", "byte", "keys", "digit", "server", "count", "unknown", "empty"]))
    body = _canonical_body(field, payload)
    wire_payload = {**payload, "elements": [list(field.coeffs(v)) for v in payload["elements"]]}
    elements = wire_payload["elements"]
    if edit == "space":
        at = draw(st.integers(0, len(body)))
        return body[:at] + b" " + body[at:]
    if edit == "byte":
        # anywhere, or at one of the brackets that open and close the element list
        ends = body.index(b"["), body.index(b", \"kind\"")
        at = draw(st.integers(0, len(body) - 1) | st.sampled_from([ends[0], ends[0] + 1, ends[1] - 2, ends[1] - 1]))
        return body[:at] + bytes([draw(st.sampled_from(b'[]{}, "019-.x'))]) + body[at + 1:]
    if edit == "keys":
        keys = draw(st.permutations(sorted(wire_payload)))
        return json.dumps({key: wire_payload[key] for key in keys}).encode()
    if edit in ("digit", "server"):
        tokens = [b"true", b"1.0", b"01", b"-1"]
        if edit == "digit" and elements:
            elements[draw(st.integers(0, len(elements) - 1))][draw(st.integers(0, field.n - 1))] = "@"
            tokens.append(str(field.p).encode())
        else:
            wire_payload["server"] = "@"
        return json.dumps(wire_payload, sort_keys=True).encode().replace(b'"@"', draw(st.sampled_from(tokens)))
    if edit == "count":
        if elements and draw(st.booleans()):
            del elements[draw(st.integers(0, len(elements) - 1))]
        else:
            elements.append(list(field.coeffs(draw(st.integers(0, field.order - 1)))))
    elif edit == "unknown":
        wire_payload["server"] = 99  # never stored by a stream
    else:
        wire_payload["elements"] = []
        if payload["kind"] == "STORE":
            wire_payload["shape"] = draw(st.sampled_from([[0], [2, 0], [0, 3]]))
    return json.dumps(wire_payload, sort_keys=True).encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(canonical_streams(), st.data())
def test_canonical_reader_matches_json_reader(stream, data):
    """A random STORE/QUERY stream, and the same stream with one frame
    edited, get the same reply bytes as from the JSON reader alone."""
    field, payloads = stream
    bodies = [_canonical_body(field, payload) for payload in payloads]
    at = data.draw(st.integers(0, len(bodies) - 1))
    edited = [*bodies[:at], _edited_body(data.draw, field, payloads[at]), *bodies[at + 1:]]
    step = data.draw(st.sampled_from([7, 2**20]))
    for variant in (bodies, edited):
        wire = _wire(*variant)
        assert _served(wire, field, step) == _served_by_json_reader(wire, field, step)


@pytest.mark.parametrize("q", [5, 8, 11])
def test_worker_reads_rendered_trial_frames_without_json(q, monkeypatch):
    """Every frame the client renders for a trial is read without the JSON
    parser, and the replies are the JSON reader's and the in-process
    answers.  At q = 11, the first Hermitian field with two-digit
    coefficients, element texts differ in width."""
    params = scheme.validate_params(q, 1, 1, num_files=2)
    instance = scheme.build_instance(params)
    field, rng = instance.field, np.random.default_rng(q)
    shares = instance.encode_storage(field.sample_arr(rng, (params.num_files, params.frag_count)), rng)
    queries = instance.make_queries(1, rng)
    share_texts, query_texts = transport._grid_texts(field, shares), transport._grid_texts(field, queries)
    wire = _wire(*[body for s in range(params.server_count) for body in (
        transport._store_body(s, shares.shape[1:], share_texts[s]), transport._query_body(s, query_texts[s]))])
    parsed = []
    parse_body = transport._parse_body
    monkeypatch.setattr(transport, "_parse_body", lambda body: parsed.append(body) or parse_body(body))
    replies = _served(wire, field)
    assert parsed == []
    assert replies == _served_by_json_reader(wire, field)
    assert len(parsed) == 2 * params.server_count
    answers = instance.all_answers(shares, queries)
    assert b"".join(replies) == _wire(*[transport._answer_body(field, s, a) for s, a in enumerate(answers)])


def test_worker_answers_each_query_from_the_grid_stored_before_it():
    """One read holding STORE, QUERY, a second STORE of the same server,
    QUERY, a QUERY the canonical reader refuses, an unparsable body and a
    QUERY for an unknown server gets the same reply bytes whatever the
    read size, and the JSON reader's: each QUERY is answered from the grid
    stored when it came, though all of a read's answers come from one
    product."""
    field = F25
    first, second, query = [3, 7, 11, 24], [1, 0, 0, 2], [5, 6, 1, 9]
    store = lambda grid: _canonical_body(field, {"kind": "STORE", "server": 2, "shape": [2, 2], "elements": grid})
    query_body = _canonical_body(field, {"kind": "QUERY", "server": 2, "elements": query})
    wire = _wire(store(first), query_body, store(second), query_body, query_body.replace(b", ", b",  ", 1),
                 b"{bad}", _canonical_body(field, {"kind": "QUERY", "server": 9, "elements": query}))
    parsed = []
    parse_body = transport._parse_body
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_parse_body", lambda body: parsed.append(bytes(body)) or parse_body(body))
        at_once = _served(wire, field)
    assert len(at_once) == 1 and len(parsed) == 3  # the three frames the canonical reader refuses
    for step in (1, 7):
        assert b"".join(_served(wire, field, step)) == at_once[0]
    assert _served_by_json_reader(wire, field) == at_once
    left, right = socket.socketpair()
    with left, right:
        left.sendall(at_once[0])
        left.close()
        replies = _replies(right)
    answer = lambda grid: list(field.coeffs(int(field.sum_arr(field.mul_arr(np.array(grid), np.array(query))))))
    assert answer(first) != answer(second)
    assert [r.get("element") for r in replies[:3]] == [answer(first), answer(second), answer(second)]
    assert [r["kind"] for r in replies] == ["ANSWER"] * 3 + ["ERROR"] * 2
    assert replies[4]["message"] == "QUERY for server 9, which has no stored shares"


@pytest.mark.parametrize("order, old, new", [
    # in GF(7) an element's text and its ", " take 5 bytes: one element is no empty grid
    (7, b'"server": 3, "shape": [1]', b'"server": 3, "shape": [0]'),
    (25, b"[3, 2]", b"[3, 5]"),  # a digit p
    (25, b"[3, 2]", b"[3, 9]"),
    (25, b"[3, 2]", b"[3, /]"),  # a byte just below "0"
    (25, b"[3, 2]", b"[3,,2]"),
    (25, b"], [3", b"] ,[3"),  # JSON, but not the client's rendering
    (25, b"], [3", b"]] [3"),
    (25, b"[1, 0], ", b"[1, 0]  "),
])
def test_worker_reads_a_batch_around_one_body_at_fault(order, old, new):
    """One body of a batch of the client's renderings, edited so that its
    element texts keep their width and the digits their columns, gets the
    JSON reader's reply, an ANSWER or an ERROR; every other body is read
    without the JSON parser."""
    field = field_of_order(order)
    store = lambda server, grid: _canonical_body(
        field, {"kind": "STORE", "server": server, "shape": [len(grid)], "elements": grid})
    query = lambda server, grid: _canonical_body(field, {"kind": "QUERY", "server": server, "elements": grid})
    bodies = [store(1, [4, 5]), store(3, [4]), query(1, [1, 13 % order])]
    (at,) = [i for i, body in enumerate(bodies) if old in body]
    assert bodies[at].count(old) == 1
    bodies[at] = bad = bodies[at].replace(old, new)
    wire = _wire(*bodies)
    parsed = []
    parse_body = transport._parse_body
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_parse_body", lambda body: parsed.append(bytes(body)) or parse_body(body))
        replies = _served(wire, field)
    assert parsed == [bad]
    assert replies == _served_by_json_reader(wire, field)


def test_worker_reads_a_frame_one_byte_at_a_time():
    wire = _wire(GOOD_STORE, QUERY_4)
    conn = _Trickle(wire, step=1)
    serve_connection(conn, F25)
    assert conn.pos == len(wire)
    # one reply, written after the read that completed the QUERY frame
    assert conn.writes == [_wire(ANSWER_4)]


def test_worker_reads_a_large_frame_in_many_reads():
    """A STORE of several MiB arrives in many reads and is answered."""
    side = 300
    store = {"kind": "STORE", "server": 4, "shape": [side, side],
             "elements": encode_elements(F25, np.arange(side * side) % 25)}
    query = {"kind": "QUERY", "server": 4, "elements": [[1, 0]] * (side * side)}
    wire = _wire(store, query)
    assert len(wire) > 16 * transport.RECV_BYTES
    conn = _Trickle(wire, step=transport.RECV_BYTES)
    serve_connection(conn, F25)
    total = int(F25.sum_arr(np.arange(side * side) % 25))
    assert conn.writes == [_wire({"kind": "ANSWER", "server": 4, "element": list(F25.coeffs(total))})]


def test_worker_replies_then_raises_on_close_mid_frame():
    client, worker = socket.socketpair()
    with client, worker:
        client.settimeout(10)
        client.sendall(_wire(GOOD_STORE, QUERY_4, QUERY_4)[:-3])  # the last frame cut short
        client.shutdown(socket.SHUT_WR)
        with pytest.raises(ConnectionError, match="mid-frame"):
            serve_connection(worker, F25)
        worker.close()
        assert _replies(client) == [ANSWER_4]


def test_worker_sends_owed_replies_before_an_oversized_header():
    """Past the cap the frame boundary is lost, but the replies to the
    complete frames before the header go out first, in order."""
    client, worker = socket.socketpair()
    with client, worker:
        client.settimeout(10)
        client.sendall(_wire(GOOD_STORE, QUERY_4, {"kind": "FETCH"}, QUERY_4)
                       + struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ValueError, match="cap"):
            serve_connection(worker, F25)
        worker.close()
        replies = _replies(client)
    assert [r["kind"] for r in replies] == ["ANSWER", "ERROR", "ANSWER"]


@pytest.mark.parametrize("extra", [0, 1])
def test_frame_reader_takes_a_frame_at_exactly_the_cap(extra, monkeypatch):
    """A header announcing exactly `MAX_FRAME_BYTES` is taken at both ends,
    by the worker loop and by the client's answer read; one byte more is
    refused by both."""
    monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 128)
    padded = lambda payload: json.dumps(payload, sort_keys=True).encode().ljust(128 + extra)
    worker = _Trickle(_wire(GOOD_STORE, padded(QUERY_4)), step=2**20)
    client = transport._FrameReader(_Trickle(_wire(padded(ANSWER_4)), step=2**20))
    if extra:
        with pytest.raises(ValueError, match="cap"):
            serve_connection(worker, F25)
        with pytest.raises(ValueError, match="cap"):
            client.answer(F25, 4)
        assert worker.writes == []
    else:
        serve_connection(worker, F25)
        assert worker.writes == [_wire(ANSWER_4)]
        assert client.answer(F25, 4) == F25.add(1, 5)


def _answer_edits(draw, field, server: int, value: int) -> tuple[int, bytes]:
    """The server the client expects and one wire piece for `server`'s
    ANSWER of `value`: its exact rendering, or that after one drawn edit."""
    body = transport._answer_body(field, server, value)
    edit = draw(st.sampled_from(["none", "none", "space", "keys", "server", "other", "no element", "digit p",
                                 "error", "cap", "cut"]))
    payload = {"kind": "ANSWER", "server": server, "element": list(field.coeffs(value))}
    expected = server + 1 if edit == "other" else server
    if edit == "space":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b" " + body[at:]
    elif edit == "keys":
        keys = draw(st.permutations(sorted(payload)))
        body = json.dumps({key: payload[key] for key in keys}).encode()
    elif edit == "server":
        body = body.replace(b'"server": %d' % server, b'"server": ' + draw(st.sampled_from([b"true", b"1.0", b"01"])))
    elif edit == "no element":
        del payload["element"]
        body = json.dumps(payload, sort_keys=True).encode()
    elif edit == "digit p":
        payload["element"][draw(st.integers(0, field.n - 1))] = field.p
        body = json.dumps(payload, sort_keys=True).encode()
    elif edit == "error":
        body = json.dumps({"kind": "ERROR", "message": "QUERY for server 4, which has no stored shares"}).encode()
    elif edit == "cap":
        return server, struct.pack(">I", MAX_FRAME_BYTES + 1) + body
    if edit == "cut":
        return server, struct.pack(">I", len(body)) + body[: draw(st.integers(0, len(body) - 1))]
    return expected, struct.pack(">I", len(body)) + body


def _answer_outcomes(read, conn, servers: list[int]) -> list:
    """For each expected server in turn, the element `read(conn, server)`
    returns or the type and message of what it raises; the first exception
    that leaves the frame boundary behind ends the list."""
    out = []
    for server in servers:
        try:
            out.append(read(conn, server))
        except (ConnectionError, ValueError) as exc:
            out.append((type(exc), str(exc)))
            if "mid-frame" in str(exc) or "cap" in str(exc):
                break
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([7, 25, 64, 121, 289]), st.data())
def test_buffered_answer_reader_matches_read_answer(order, data):
    """A random stream of ANSWER frames, some of them edited, read through
    a `_FrameReader` in reads of a drawn size gives, frame by frame, the
    encoding `read_answer` and `decode_elements` give, or the same
    exception type and message."""
    field = field_of_order(order)
    frames = data.draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, field.order - 1)), min_size=1, max_size=6))
    pieces = [_answer_edits(data.draw, field, server, value) for server, value in frames]
    servers = [server for server, _ in pieces] + [0]  # one read past the end meets the close
    wire = b"".join(piece for _, piece in pieces)
    reference = lambda sock, server: int(decode_elements(field, [read_answer(sock, server)])[0])
    buffered = lambda reader, server: reader.answer(field, server)
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "RECV_BYTES", data.draw(st.sampled_from([1, 5, 64, 2**16])))
        for read, wrap in ((reference, lambda sock: sock), (buffered, transport._FrameReader)):
            left, right = socket.socketpair()
            with left, right:
                right.settimeout(10)
                left.sendall(wire)
                left.close()
                outcomes.append(_answer_outcomes(read, wrap(right), servers))
    assert outcomes[1] == outcomes[0]


def test_pool_reads_bytes_left_over_by_the_previous_call():
    """Replies past the ones a call reads stay in the pool's buffer for the
    next call, whichever reader takes them."""
    pool = WorkerPool(F25, 2, 1)
    client, worker = socket.socketpair()
    with client, worker:
        client.settimeout(10)
        pool.conns, pool.readers = [client], [transport._FrameReader(client)]
        odd = json.dumps({"element": [4, 1], "server": 1, "kind": "ANSWER"}).encode()  # not canonical
        replies = [transport._answer_body(F25, 0, 7), transport._answer_body(F25, 1, 13),
                   transport._answer_body(F25, 0, 24), odd]
        worker.sendall(b"".join(struct.pack(">I", len(body)) + body for body in replies))
        grid = np.zeros((2, 1, 1), dtype=np.int64)
        assert pool.answers(grid, grid).tolist() == [7, 13]
        assert len(pool.readers[0].buf) > pool.readers[0].pos  # the second call's replies came in the first read
        assert pool.answers(grid, grid).tolist() == [24, 4 + 5 * 1]


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


def test_pool_rejects_grids_of_the_wrong_shape(monkeypatch):
    """Share and query grids pair row by row, one per server: three grids
    for two servers, one grid, or share and query grids of different sizes
    raise ValueError before any frame is sent, and the pool still answers."""
    grid = np.arange(6, dtype=np.int64).reshape(3, 1, 2)
    sent = []
    with WorkerPool(F25, 2, 1) as pool:
        monkeypatch.setattr(socket.socket, "sendall", lambda sock, data: sent.append(data))
        for shares, queries in ((grid, grid), (grid[:1], grid[:1]), (grid[:2], grid[:2, :, :1])):
            with pytest.raises(ValueError, match="one shape with 2 rows"):
                pool.answers(shares, queries)
        monkeypatch.undo()
        assert sent == []
        assert pool.answers(grid[:2], grid[1:]).tolist() == [
            int(F25.sum_arr(F25.mul_arr(grid[s], grid[s + 1]))) for s in range(2)]


def test_pool_times_out_on_hung_worker(monkeypatch):
    """A worker that never replies makes the pool raise after the reply
    timeout instead of blocking; exiting still ends the worker."""
    monkeypatch.setattr(transport, "_handle_frames", lambda *args: time.sleep(600))
    monkeypatch.setattr(transport, "REPLY_TIMEOUT_S", 0.5)
    grid = np.zeros((2, 1, 1), dtype=np.int64)
    start = time.perf_counter()
    with pytest.raises(TimeoutError):
        with WorkerPool(F25, 2, 1) as pool:
            pool.answers(grid, grid)
    assert time.perf_counter() - start < 30
    assert pool.procs and not any(proc.is_alive() for proc in pool.procs)
