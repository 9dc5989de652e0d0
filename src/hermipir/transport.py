"""Optional loopback socket transport for the retrieval demo.

A frame is a 4-byte big-endian length, at most `MAX_FRAME_BYTES`, followed
by a JSON payload.  Field elements travel as little-endian base-p
coefficient tuples of exactly n digits in 0..p-1, never as this library's
internal integer encodings, so any implementation of the same field could
sit on the other end.  Message kinds:

- ``STORE``  ``{server, shape, elements}`` -- a server's share grid,
  replacing any previously stored grid for that server; no reply.
- ``QUERY``  ``{server, elements}`` -- a query grid for a stored server;
  answered with one ``ANSWER`` frame.
- ``ANSWER`` ``{server, element}`` -- the inner product of the stored grid
  and the query grid.
- ``ERROR``  ``{message}`` -- sent by a worker instead of a reply when it
  rejects a frame: an unknown ``kind``, a ``server`` that is not an int (or,
  in a QUERY, one never stored), a ``shape`` that is not a list of
  non-negative ints, or elements that do not fit.  The worker skips the
  frame and keeps serving; the client raises ConnectionError with the
  message.

A connection that closes at a frame boundary shuts the worker down.

Workers are separate processes, each hosting a disjoint slice of the
logical servers (one process per logical server would be wasteful at
N = 85 and up); a worker keeps per-server state and only ever sees the
shares and queries addressed to its own slice, so the single-server view
the privacy and security arguments rely on is preserved per logical
server.  Answers arrive in per-connection FIFO order, which the client
exploits to collect them without sequence numbers.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import socket
import struct

import numpy as np

from hermipir.fields import GFField, field_of_order
from hermipir.scheme import build_instance, validate_params

_HEADER = struct.Struct(">I")
# far above any demo frame (a q=7 STORE frame is a few KiB), and
# far below the 4 GiB a bare 4-byte length would let a peer announce
MAX_FRAME_BYTES = 16 * 2**20


# ---------------------------------------------------------------------------
# framing and element serialization
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, size: int, allow_eof: bool = False):
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """The next frame, or None when the peer closed at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"peer announced a {length}-byte frame; the cap is {MAX_FRAME_BYTES}")
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


def encode_elements(field: GFField, values) -> list[list[int]]:
    """Flatten a grid of field elements to base-p coefficient tuples."""
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    return [list(field.coeffs(int(v))) for v in flat]


def decode_elements(field: GFField, elements, shape=None) -> np.ndarray:
    """Inverse of `encode_elements`.  Raises ValueError unless every tuple
    has exactly n integer digits in 0..p-1."""
    digits = np.asarray(elements)
    if digits.shape == (0,):
        digits = np.zeros((0, field.n), dtype=np.int64)
    if digits.ndim != 2 or digits.shape[1] != field.n or digits.dtype.kind not in "iu":
        raise ValueError(f"elements must be tuples of {field.n} integer digits")
    if digits.size and (digits.min() < 0 or digits.max() >= field.p):
        raise ValueError(f"element digits must lie in 0..{field.p - 1}")
    vals = digits.astype(np.int64) @ (field.p ** np.arange(field.n, dtype=np.int64))
    return vals if shape is None else vals.reshape(shape)


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def serve_worker(listener: socket.socket, field_order: int) -> None:
    """Accept one client and answer frames until the connection closes.

    Holds only per-server share grids and the field tables; the scheme
    instance never crosses the process boundary.
    """
    conn, _ = listener.accept()
    listener.close()
    with conn:
        serve_connection(conn, field_of_order(field_order))


def serve_connection(conn: socket.socket, field: GFField) -> None:
    """Answer frames on `conn` until it closes; a rejected frame gets an
    ERROR frame."""
    stored: dict[int, np.ndarray] = {}
    while (msg := recv_frame(conn)) is not None:
        try:
            reply = _handle_frame(field, stored, msg)
        except ValueError as exc:
            reply = {"kind": "ERROR", "message": str(exc)}
        if reply is not None:
            send_frame(conn, reply)


def _handle_frame(field: GFField, stored: dict[int, np.ndarray], msg) -> dict | None:
    """The reply to one frame (None for STORE); ValueError names what is wrong."""
    kind = msg.get("kind") if isinstance(msg, dict) else None
    if kind not in ("STORE", "QUERY"):
        raise ValueError(f"unknown frame kind {kind!r}")
    server = msg.get("server")
    if type(server) is not int:
        raise ValueError(f"{kind} server must be an int, got {server!r}")
    if kind == "STORE":
        shape = msg.get("shape")
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"STORE shape must be a list of non-negative ints, got {shape!r}")
        stored[server] = decode_elements(field, msg.get("elements"), tuple(shape))
        return None
    if server not in stored:
        raise ValueError(f"QUERY for server {server}, which has no stored shares")
    share = stored[server]
    query = decode_elements(field, msg.get("elements"), share.shape)
    answer = int(field.sum_arr(field.mul_arr(share, query)))
    return {"kind": "ANSWER", "server": server, "element": list(field.coeffs(answer))}


def read_answer(conn: socket.socket, server: int) -> list[int]:
    """The coefficient tuple of `server`'s ANSWER, the next frame on `conn`.
    Raises ConnectionError on an ERROR frame or any other reply."""
    msg = recv_frame(conn)
    if isinstance(msg, dict) and msg.get("kind") == "ERROR":
        raise ConnectionError(f"worker error: {msg.get('message')}")
    if not isinstance(msg, dict) or msg.get("kind") != "ANSWER" or msg.get("server") != server:
        raise ConnectionError(f"bad reply for server {server}: {msg}")
    return msg["element"]


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

def run_demo_over_sockets(
    q: int,
    x_sec: int,
    t_priv: int,
    num_files: int,
    seed: int,
    trials: int = 100,
    fiber_count: int | None = None,
    workers: int = 8,
) -> dict:
    """The seeded demo transcript with answers computed by worker processes.

    Consumes randomness in exactly the order of the in-process demo, so the
    transcript (files, desired indices, checksums, successes) matches it
    value for value; only the inner products travel over loopback sockets.
    """
    params = validate_params(
        q, x_sec, t_priv, fiber_count=fiber_count, num_files=num_files
    )
    instance = build_instance(params)
    field = instance.field
    n = params.server_count
    worker_count = max(1, min(workers, n))
    assignment = [s % worker_count for s in range(n)]

    ctx = mp.get_context("fork")
    listeners: list[socket.socket] = []
    procs: list[mp.Process] = []
    conns: list[socket.socket] = []
    try:
        for _ in range(worker_count):
            listener = socket.create_server(("127.0.0.1", 0))
            proc = ctx.Process(
                target=serve_worker, args=(listener, field.order), daemon=True
            )
            proc.start()
            listeners.append(listener)
            procs.append(proc)
        for listener in listeners:
            port = listener.getsockname()[1]
            conns.append(socket.create_connection(("127.0.0.1", port)))
            listener.close()
        listeners.clear()

        rng = np.random.default_rng(seed)
        results = []
        successes = 0
        for t in range(trials):
            files = field.sample_arr(rng, (params.num_files, params.frag_count))
            desired = int(rng.integers(0, params.num_files))
            shares = instance.encode_storage(files, rng)
            queries = instance.make_queries(desired, rng)
            for s in range(n):
                conn = conns[assignment[s]]
                send_frame(conn, {
                    "kind": "STORE",
                    "server": s,
                    "shape": list(shares[s].shape),
                    "elements": encode_elements(field, shares[s]),
                })
                send_frame(conn, {
                    "kind": "QUERY",
                    "server": s,
                    "elements": encode_elements(field, queries[s]),
                })
            replies = [read_answer(conns[assignment[s]], s) for s in range(n)]
            answers = decode_elements(field, replies)
            got = instance.reconstruct(answers)
            ok = bool((got == files[desired]).all())
            successes += ok
            results.append({
                "trial": t,
                "desired": desired,
                "ok": ok,
                "fragment_checksum": int(field.sum_arr(got)),
            })
    finally:
        for conn in conns:
            conn.close()
        for listener in listeners:
            listener.close()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - cleanup of stuck worker
                proc.terminate()
                proc.join(timeout=10)

    return {
        "config": {
            "q": q,
            "x_sec": x_sec,
            "t_priv": t_priv,
            "num_files": num_files,
            "seed": seed,
            "trials": trials,
            "fiber_count": params.fiber_count,
        },
        "params": instance.manifest()["params"],
        "rate": instance.manifest()["rate"],
        "successes": successes,
        "trials": trials,
        "results": results,
        "workers": worker_count,
    }
