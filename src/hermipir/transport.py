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
  rejects a frame: a body that is not UTF-8 JSON, an unknown ``kind``, a
  ``server`` that is not an int (or, in a QUERY, one never stored), a
  ``shape`` that is not a list of non-negative ints, or elements that do
  not fit.  The message quotes at most `_QUOTE_CHARS` characters of a
  rejected value, so it fits in a frame whatever the rejected frame held.
  The worker skips the frame and keeps serving; the client raises
  ConnectionError with the message.

A connection that closes at a frame boundary shuts the worker down, and so
does a header announcing more than `MAX_FRAME_BYTES`, since the frame
boundary is then lost (the replies already owed go out first).

Bodies are the ``json.dumps(payload, sort_keys=True)`` of their payload.
The client renders every grid of a retrieval with one gather from a cached
table holding each element's JSON text and ``", "``, padded with NULs to
one width; one NUL strip drops the padding, and one cumulative sum of the
entry lengths gives each grid's span.  It sends each server's STORE and
QUERY frames in one write; the worker reads up to `RECV_BYTES` at a time,
handles every complete frame of the read in one batch, and sends the
batch's replies in one write before it blocks again.

The worker reads a batch without building JSON values, in place in its
buffer.  A syntax pass matches one anchored regex over each body and
reads the element lists of every matched body at once.  Over a field
whose element texts have one width (p < 10, where each takes 3n bytes and
``", "`` two more), it joins the lists as the client rendered them, reads
the digits with one strided numpy pass per digit column of the joined
bytes viewed as rows of that width, and takes the batch only when every
digit lies in 0..p-1 and re-rendering the values gives back the same
bytes.  Over any other field (p >= 11, where ``[0]`` and ``[10]`` differ
in width), and for a batch the byte check refuses, it splits each list at
``"], ["`` and looks every piece up in one pass over a dict from each
element's cached text to its encoding, which finds the bodies at fault.
An in-order pass takes a STORE or QUERY when every element is canonical
text, the element count fits the shape or the stored grid, and a QUERY's
server is stored.  Every other body, each one answered with ERROR among
them, falls through to ``json.loads`` and the checks on its value, which
give the same reply for a canonical body.  A QUERY keeps the grid stored
when it comes, and all of a batch's answers come from one banded product
per grid shape, `scheme.inner_products`, the kernel of `all_answers` too.

Both ends read a connection through a `_FrameReader`, a buffer filled
`RECV_BYTES` at a time whose `take` hands out the body span of each
complete frame and refuses a header past the cap.  The client keeps one
reader per connection across retrievals, so bytes read ahead wait for
the next call, and decodes each reply as it reads it: an ANSWER in
exactly the worker's form with one anchored regex and the same dict, any
other reply as a JSON object through the same checks.

At q = 5, in-process over one retrieval's recorded frames on a 2-core
Xeon host (medians of 600 runs, three runs per side), a worker spends
about 7-9 µs per server against 16-20 µs when it splits every list and
looks each piece up in the dict, the client renders a retrieval's grids
in 82-87 µs against 417-466 µs element by element, and reads its 85
answers in 182-192 µs against 581-635 µs with two ``recv`` calls and
one ``json.loads`` each.

Workers are separate processes, each hosting a disjoint slice of the
logical servers (one process per logical server would be wasteful at
N = 85 and up); a worker keeps per-server state and only ever sees the
shares and queries addressed to its own slice, so the single-server view
the privacy and security arguments rely on is preserved per logical
server.  Answers arrive in per-connection FIFO order, which the client
exploits to collect them without sequence numbers.  `WorkerPool` is the
client: an answer backend for `scheme.run_trials`, whose connections time
out after `REPLY_TIMEOUT_S` so that a hung worker raises instead of
blocking the client forever.

Both ends of every worker connection set ``TCP_NODELAY``.  Both still
write small segments back to back: the client one write per server (under
1 KiB at q = 5) with no reply awaited in between, the worker one reply
batch per read while the client, having sent everything, has nothing to
send back.  With Nagle's algorithm (RFC 896) a small write waits while an
earlier one is unacknowledged, and a peer with nothing to send delays its
acknowledgement (RFC 1122; at least about 40 ms on Linux), a stall of
about one delayed ACK per retrieval.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import multiprocessing as mp
import re
import socket
import struct

import numpy as np

from hermipir.fields import GFField, field_of_order
from hermipir.scheme import build_instance, check_answer_grids, inner_products, run_trials, validate_params

_HEADER = struct.Struct(">I")
# far above any demo frame (a q=7 STORE frame is a few KiB), and
# far below the 4 GiB a bare 4-byte length would let a peer announce
MAX_FRAME_BYTES = 16 * 2**20
# far above any demo reply wait (a q=7 retrieval's answers take milliseconds)
REPLY_TIMEOUT_S = 60.0
# an ERROR message quotes a rejected value by at most this many characters
# of its repr, so that every ERROR body stays far below the cap whatever the
# frame held (JSON escaping grows a character to at most 12 bytes)
_QUOTE_CHARS = 64
# a worker's read size: one read takes dozens of q=5 servers' frames (under
# 1 KiB each), and a frame at the cap arrives in 256 reads
RECV_BYTES = 64 * 2**10


# ---------------------------------------------------------------------------
# framing and element serialization
# ---------------------------------------------------------------------------

def _frame(body: bytes) -> bytes:
    """The header and `body` of one frame; ValueError past the cap."""
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return _HEADER.pack(len(body)) + body


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(_frame(_json_body(payload)))


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


def _frame_length(buf, at: int) -> int:
    """The body length announced by the header at `buf[at:]`; ValueError
    past the cap."""
    (length,) = _HEADER.unpack_from(buf, at)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"peer announced a {length}-byte frame; the cap is {MAX_FRAME_BYTES}")
    return length


def _recv_body(sock: socket.socket) -> bytes | None:
    """The next frame's body, or None when the peer closed at a frame
    boundary.  Raises ValueError for a header past the cap."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    return _recv_exact(sock, _frame_length(header, 0))


def _parse_body(body: bytes):
    """The JSON value of a frame body; ValueError unless it is UTF-8 JSON."""
    try:
        return json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("frame body nests too deeply") from None


def _message(body: bytes) -> dict:
    """The JSON object of a frame body; ValueError unless it is one."""
    msg = _parse_body(body)
    if not isinstance(msg, dict):
        raise ValueError(f"frame body must be a JSON object, got {type(msg).__name__}")
    return msg


def recv_frame(sock: socket.socket) -> dict | None:
    """The next frame, or None when the peer closed at a frame boundary.
    Raises ValueError for a body that is not a UTF-8 JSON object."""
    body = _recv_body(sock)
    return None if body is None else _message(body)


class _FrameReader:
    """A connection read through a buffer, `RECV_BYTES` at a time, at both
    ends: `fill` appends one read to `buf`, and `take` hands out the body
    span of each complete frame in it.  Bytes past the frames taken stay
    for the next `take`, so a reader kept across calls loses nothing it
    read ahead."""

    def __init__(self, sock: socket.socket):
        self.sock, self.buf, self.pos = sock, bytearray(), 0

    def fill(self) -> bool:
        """Append one read of the socket to `buf`, dropping the bytes
        already taken; False when the peer has closed."""
        chunk = self.sock.recv(RECV_BYTES)
        del self.buf[: self.pos]
        self.pos = 0
        self.buf += chunk  # amortized: a frame spread over many reads is not re-copied
        return bool(chunk)

    def take(self) -> tuple[int, int] | None:
        """The span of the next frame's body in `buf`, now taken, or None
        while `buf` does not hold the whole frame.  ValueError for a header
        past the cap."""
        start = self.pos + _HEADER.size
        if len(self.buf) < start:
            return None
        end = start + _frame_length(self.buf, self.pos)
        if len(self.buf) < end:
            return None
        self.pos = end
        return start, end

    def answer(self, field: GFField, server: int) -> int:
        """The encoding of the element in `server`'s ANSWER, the next frame.
        An ANSWER in exactly the worker's form with an element's text is
        read by `_ANSWER` and `_element_pieces`; any other frame by
        `_message` and `_answer_element`, whose errors it raises.  A close
        mid-frame raises ConnectionError."""
        while (span := self.take()) is None:
            if not self.fill():
                if self.buf:
                    raise ConnectionError("peer closed mid-frame")
                return _answer_element(field, None, server)
        start, end = span
        match = _ANSWER.match(self.buf, start, end)
        if match is not None and int(match[2]) == server:
            value = _element_pieces(field).get(match[1])
            if value is not None:
                return value
        return _answer_element(field, _message(self.buf[start:end]), server)


def encode_elements(field: GFField, values) -> list[list[int]]:
    """Flatten a grid of field elements to base-p coefficient tuples.
    Raises ValueError for a value outside 0..order-1."""
    flat = field.check_elements(values, "elements").reshape(-1)
    return ((flat[:, None] // field.p ** np.arange(field.n)) % field.p).tolist()


@functools.cache
def _element_texts(field: GFField) -> list[bytes]:
    """The JSON text of each element's coefficient tuple, by encoding."""
    return [json.dumps(cs).encode("ascii") for cs in encode_elements(field, np.arange(field.order))]


@functools.cache
def _element_table(field: GFField) -> tuple[np.ndarray, np.ndarray]:
    """Each element's JSON text followed by ``", "``, by encoding, as a
    fixed-width bytes array padded with NULs, and the byte length of each.
    Both are read-only, since every later frame renders from them."""
    entries = [text + b", " for text in _element_texts(field)]
    table = np.array(entries)
    lengths = np.array(list(map(len, entries)), dtype=np.int64)
    table.flags.writeable = lengths.flags.writeable = False
    return table, lengths


def _grid_texts(field: GFField, grids) -> list[bytes]:
    """For each grid along the first axis of `grids`, the JSON text of
    ``encode_elements(field, grid)`` without its brackets.  The range check
    runs first, so that no value indexes another element's text.  One gather
    from `_element_table` renders every grid at once; the padding goes with
    one NUL strip, since JSON text holds no NUL, and one cumulative sum of
    the entry lengths gives each grid's span."""
    flat = field.check_elements(grids, "elements")
    flat = flat.reshape(len(flat), math.prod(flat.shape[1:]))
    if not flat.shape[1]:
        return [b""] * len(flat)
    table, lengths = _element_table(field)
    text = table[flat].tobytes().replace(b"\0", b"")
    ends = np.cumsum(lengths[flat].sum(axis=1)).tolist()
    return [text[start : end - 2] for start, end in zip([0, *ends], ends)]  # each without its last ", "


# Bodies from element texts.  Each equals, byte for byte,
# ``json.dumps(payload, sort_keys=True).encode()`` of the payload it stands for.

def _store_body(server: int, shape: tuple[int, ...], elements: bytes) -> bytes:
    return b'{"elements": [%b], "kind": "STORE", "server": %d, "shape": [%b]}' % (
        elements, server, ", ".join(map(str, shape)).encode("ascii"))


def _query_body(server: int, elements: bytes) -> bytes:
    return b'{"elements": [%b], "kind": "QUERY", "server": %d}' % (elements, server)


def _answer_body(field: GFField, server: int, value: int) -> bytes:
    return b'{"element": %b, "kind": "ANSWER", "server": %d}' % (_element_texts(field)[value], server)


def decode_elements(field: GFField, elements, shape=None) -> np.ndarray:
    """Inverse of `encode_elements`.  Raises ValueError unless every tuple
    has exactly n int digits in 0..p-1, naming a malformed tuple before a
    digit out of range; a bool is not a digit."""
    try:
        flat = list(itertools.chain.from_iterable(elements))
        well_formed = set(map(type, flat)) <= {int} and set(map(len, elements)) <= {field.n}
        digits = np.array(flat, dtype=np.int64).reshape(-1, field.n) if well_formed else None
    except (TypeError, OverflowError):  # an element that is not a sequence, or a digit past int64
        digits = None
    if digits is None:
        raise ValueError(f"elements must be tuples of {field.n} integer digits")
    if ((digits < 0) | (digits >= field.p)).any():
        raise ValueError(f"element digits must lie in 0..{field.p - 1}")
    vals = digits @ field.p ** np.arange(field.n)
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
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        serve_connection(conn, field_of_order(field_order))


def serve_connection(conn: socket.socket, field: GFField) -> None:
    """Answer frames on `conn` until it closes; a rejected frame, an
    unparsable body included, gets an ERROR frame.

    Each read takes up to `RECV_BYTES`; `_handle_frames` handles every frame
    it completes, in place in the buffer, and their replies go out in one
    write before the next read.  A close at a frame boundary returns, a
    close mid-frame raises ConnectionError, and a header past the cap raises
    ValueError once the replies already owed are sent."""
    stored: dict[int, np.ndarray] = {}
    reader = _FrameReader(conn)
    while reader.fill():
        spans: list[tuple[int, int]] = []
        try:
            while span := reader.take():
                spans.append(span)
        finally:
            if spans and (replies := _handle_frames(field, stored, reader.buf, spans)):
                conn.sendall(b"".join(replies))
    if reader.buf:
        raise ConnectionError("peer closed mid-frame")


# The exact text `_store_body` and `_query_body` render: sorted keys, ", "
# separators, a server of at most 18 digits with no sign and no leading
# zero, and a shape of such numbers on STORE only.  An element list is
# empty or runs from a "[" to a "]" and holds no quote; the group is its
# text inside those two brackets.
_NUMBER = rb"(?:0|[1-9][0-9]{0,17})"
_CANONICAL = re.compile(
    rb'\{"elements": \[(?:\[([^"]*)\])?\], "kind": "(STORE|QUERY)", "server": (%b)'
    rb'(?:, "shape": \[((?:%b(?:, %b)*)?)\])?\}\Z' % (_NUMBER, _NUMBER, _NUMBER)
)


def _handle_frames(field: GFField, stored: dict[int, np.ndarray], buf: bytearray,
                   spans: list[tuple[int, int]]) -> list[bytes]:
    """The replies to the frames whose bodies are ``buf[start:end]`` for
    the spans, in order: none to a STORE, an ANSWER to a QUERY, an ERROR to
    a rejected frame.

    A syntax pass matches `_CANONICAL` on every body in place and reads
    the element lists of the matched bodies with `_element_values` (-1 for
    no element's text).  An in-order pass then takes each body by
    `_read_canonical`, or else by `_read_message` from its JSON value, and
    stores or queues each grid.  A QUERY keeps the grid stored when it
    comes, so a later STORE of the same read does not change its answer;
    all the read's answers come from one `inner_products` per grid shape."""
    matches = [_CANONICAL.match(buf, start, end) for start, end in spans]
    values, ends = _element_values(field, [None if match is None else match[1] for match in matches])
    if len(values) and values.min() < 0:  # a body with a piece that is no element's text is not canonical
        for i in np.searchsorted(ends, np.flatnonzero(values < 0), side="right").tolist():
            matches[i] = None
    replies: list[bytes | None] = []
    owed: dict[tuple[int, ...], list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    shapes: dict[bytes, tuple[tuple[int, ...], int]] = {}
    for (start, end), match, last, first in zip(spans, matches, ends, [0, *ends]):
        try:
            kind, server, grid = (_read_canonical(stored, match, values[first:last], shapes)
                                  or _read_message(field, stored, _parse_body(buf[start:end])))
        except ValueError as exc:
            replies.append(_frame(_json_body({"kind": "ERROR", "message": str(exc)})))
            continue
        if kind == "STORE":
            stored[server] = grid
        else:
            owed.setdefault(grid.shape, []).append((len(replies), server, stored[server], grid))
            replies.append(None)
    for shape, queries in owed.items():
        at, servers, shares, grids = zip(*queries)
        size = math.prod(shape)
        answers = inner_products(field, np.array(shares).reshape(len(at), size),
                                 np.array(grids).reshape(len(at), size))
        for i, server, value in zip(at, servers, answers.tolist()):
            replies[i] = _frame(_answer_body(field, server, value))
    return replies


@functools.cache
def _element_pieces(field: GFField) -> dict[bytes, int]:
    """Each element's JSON text without its brackets, mapped to its encoding."""
    return {text[1:-1]: v for v, text in enumerate(_element_texts(field))}


@functools.cache
def _text_width(field: GFField) -> int | None:
    """The width of every entry of `_element_table` when every element's
    text has one (p < 10: n one-character digits make 3n bytes, and
    ``", "`` two more); None otherwise."""
    table, lengths = _element_table(field)
    return table.itemsize if (lengths == table.itemsize).all() else None


def _element_values(field: GFField, groups: list[bytes | None]) -> tuple[np.ndarray, list[int]]:
    """The encodings of the elements in the element-list groups of
    `_CANONICAL` (None for a body without one), in order, -1 for a piece
    that is no element's text; and the cumulative element count at the end
    of each body.

    Over a field whose element texts have one width w, the groups joined
    as the client renders them, ``[`` g ``], [`` ... g ``], ``, go to
    `_fixed_width_values` whole.  When it takes them, a group holds
    (len(g) + 4) // w elements, since ``"], ["`` falls only between two
    elements.  Any other batch, and every batch over a field of mixed
    widths, is split at ``"], ["`` and looked up piece by piece in
    `_element_pieces`, which finds the bodies at fault."""
    width = _text_width(field)
    present = [group for group in groups if group is not None]
    if width and present:
        values = _fixed_width_values(field, width, b"[" + b"], [".join(present) + b"], ")
        if values is not None:
            counts = (0 if group is None else (len(group) + 4) // width for group in groups)
            return values, list(itertools.accumulate(counts))
    pieces: list[bytes] = []
    ends: list[int] = []
    for group in groups:
        if group is not None:
            pieces += group.split(b"], [")
        ends.append(len(pieces))
    values = np.fromiter(map(_element_pieces(field).get, pieces, itertools.repeat(-1)),
                         dtype=np.int64, count=len(pieces))
    return values, ends


def _fixed_width_values(field: GFField, width: int, text: bytes) -> np.ndarray | None:
    """The encodings of the elements whose texts, each followed by
    ``", "``, make up `text` back to back, when each takes `width` bytes;
    None for any other text.  The rows of `width` bytes are read in one
    strided pass per digit column, and taken only when every digit lies in
    0..p-1 and re-rendering the values from `_element_table` gives back
    `text` byte for byte."""
    if len(text) % width:
        return None
    rows = np.frombuffer(text, dtype=np.uint8).reshape(-1, width)
    values = np.zeros(len(rows), dtype=np.int64)
    for column in range(width - 4, 0, -3):  # the digits, most significant first
        digits = rows[:, column] - ord("0")  # a byte below "0" wraps past 255
        if digits.max() >= field.p:
            return None
        values *= field.p
        values += digits
    return values if _element_table(field)[0][values].tobytes() == text else None


def _read_canonical(stored: dict[int, np.ndarray], match, grid: np.ndarray,
                    shapes: dict[bytes, tuple[tuple[int, ...], int]]):
    """``(kind, server, grid)`` for a body that `match`ed `_CANONICAL`,
    whose element pieces are the encodings `grid`, when the element count
    fits its shape or stored grid and a QUERY's server is stored; None for
    any other body, which `_read_message` then reads.  `shapes` keeps the
    shape and size of each STORE shape text parsed so far."""
    if match is None:
        return None
    _, kind, server, text = match.groups()
    server = int(server)
    if kind == b"STORE":
        if text is None:
            return None
        if (known := shapes.get(text)) is None:
            shape = tuple(map(int, text.split(b", "))) if text else ()
            known = shapes[text] = shape, math.prod(shape)
        (shape, size), kind = known, "STORE"
    elif text is not None or (share := stored.get(server)) is None:
        return None
    else:
        shape, size, kind = share.shape, share.size, "QUERY"
    if len(grid) != size:
        return None
    return kind, server, grid.reshape(shape)


def _quote(value) -> str:
    """``repr(value)``, cut to `_QUOTE_CHARS` characters and marked "..."."""
    text = repr(value)
    return text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS] + "..."


def _read_message(field: GFField, stored: dict[int, np.ndarray], msg):
    """``(kind, server, grid)`` for the JSON value `msg` of a frame body;
    ValueError names what is wrong."""
    kind = msg.get("kind") if isinstance(msg, dict) else None
    if kind not in ("STORE", "QUERY"):
        raise ValueError(f"unknown frame kind {_quote(kind)}")
    server = msg.get("server")
    if type(server) is not int:
        raise ValueError(f"{kind} server must be an int, got {_quote(server)}")
    if kind == "STORE":
        shape = msg.get("shape")
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"STORE shape must be a list of non-negative ints, got {_quote(shape)}")
        return kind, server, decode_elements(field, msg.get("elements"), tuple(shape))
    if server not in stored:
        raise ValueError(f"QUERY for server {server}, which has no stored shares")
    return kind, server, decode_elements(field, msg.get("elements"), stored[server].shape)


def _answer_element(field: GFField, msg: dict | None, server: int) -> int:
    """The encoding of the element in `msg`, the JSON object of `server`'s
    reply (None for a close at a frame boundary).  Raises ConnectionError
    on an ERROR frame or any other reply, and ValueError for an element
    that is no coefficient tuple."""
    if msg is not None and msg.get("kind") == "ERROR":
        raise ConnectionError(f"worker error: {msg.get('message')}")
    # a bool or float server is not an int, though True and 1.0 equal 1
    if (msg is None or msg.get("kind") != "ANSWER" or type(msg.get("server")) is not int
            or msg["server"] != server or "element" not in msg):
        raise ConnectionError(f"bad reply for server {server}: {msg}")
    return int(decode_elements(field, [msg["element"]])[0])


# The exact text `_answer_body` renders; the group is the element's text
# inside its brackets.
_ANSWER = re.compile(rb'\{"element": \[([^"]*)\], "kind": "ANSWER", "server": (%b)\}\Z' % _NUMBER)


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class WorkerPool:
    """Worker processes answering for `server_count` logical servers, server
    s on worker s mod size: an answer backend for `scheme.run_trials`.

    Entering forks the workers and connects to each; exiting closes the
    connections and joins the workers, terminating any still running after
    10 s, or at once when the block raised.
    """

    def __init__(self, field: GFField, server_count: int, workers: int):
        self.field, self.server_count = field, server_count
        self.size = max(1, min(workers, server_count))
        self.procs: list[mp.Process] = []
        self.conns: list[socket.socket] = []
        self.readers: list[_FrameReader] = []  # one per connection, kept across calls

    def __enter__(self) -> WorkerPool:
        ctx = mp.get_context("fork")
        listeners: list[socket.socket] = []
        try:
            # fork every worker before any connection exists, so that no
            # worker inherits another's client socket
            for _ in range(self.size):
                listeners.append(socket.create_server(("127.0.0.1", 0)))
                proc = ctx.Process(target=serve_worker, args=(listeners[-1], self.field.order), daemon=True)
                proc.start()
                self.procs.append(proc)
            for listener in listeners:
                conn = socket.create_connection(listener.getsockname(), timeout=REPLY_TIMEOUT_S)
                self.conns.append(conn)
                self.readers.append(_FrameReader(conn))
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise
        finally:
            for listener in listeners:
                listener.close()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            # a worker ends once its connection closes; after an error it may be hung
            proc.join(timeout=10 if exc_type is None else 0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)

    def answers(self, shares, queries) -> np.ndarray:
        """The N answers: each server's STORE and QUERY frames in one write,
        in server order, then the replies in server order.  ValueError,
        before any frame is sent, unless `shares` and `queries` have one
        shape with N rows.

        Each reply is decoded as it is read, by `_FrameReader.answer`."""
        field, servers = self.field, self.server_count
        check_answer_grids(shares, queries, servers)
        share_texts, query_texts = _grid_texts(field, shares), _grid_texts(field, queries)
        shape = np.shape(shares)[1:]
        for s in range(servers):
            self.conns[s % self.size].sendall(
                _frame(_store_body(s, shape, share_texts[s])) + _frame(_query_body(s, query_texts[s])))
        return np.array([self.readers[s % self.size].answer(field, s) for s in range(servers)], dtype=np.int64)


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
    """`scheme.run_pir_demo`'s transcript, value for value, with the answers
    computed by worker processes over loopback sockets; plus ``workers``."""
    params = validate_params(
        q, x_sec, t_priv, fiber_count=fiber_count, num_files=num_files
    )
    instance = build_instance(params)
    with WorkerPool(instance.field, params.server_count, workers) as pool:
        transcript = run_trials(instance, seed, trials, pool.answers)
    transcript["workers"] = pool.size
    return transcript
