"""Binary wire format for ``runtime="process"`` IPC batches.

``ProcessTransport`` drains each per-destination buffer as one payload
per ``queue.put``.  Pickling a list of :class:`ResponseBatch` objects
serializes every adjacency list as a generic Python object — per-element
type tags, memo records, and (for ndarray rows) the full
``__reduce__`` machinery.  This module replaces that with a flat frame
format built around ``ndarray.tobytes()`` / ``np.frombuffer``:

* one 8-byte magic + an int64 message count, then one frame per message;
* every header field is a little-endian int64 and every variable-length
  payload is padded to a multiple of 8 bytes, so *all* array reads on
  the receiving side are aligned ``np.frombuffer`` views into the single
  received buffer — adjacency lists are decoded with **zero copies and
  zero per-element Python objects**;
* a ``ResponseBatch`` frame is struct-of-arrays: ``ids``, ``labels``
  and ``degrees`` arrays followed by the concatenation of all adjacency
  rows; rows are recovered by slicing at the cumulative-degree offsets;
* message types without a dedicated frame (and any future ones) travel
  as pickled sub-frames, so the codec never rejects a message;
* :func:`decode_batch` rejects any payload that does not start with
  :data:`MAGIC` — a whole-batch pickle is never unpickled.

The decoded adjacency arrays are read-only views into the received
bytes object; like the ``SharedCSR`` views, they stay valid as long as
any task holds them because the view keeps the buffer referenced.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

import numpy as np

from ..core.errors import WireDecodeError
from .message import Message, RequestBatch, ResponseBatch, TaskBatchTransfer

__all__ = ["MAGIC", "encode_batch", "decode_batch", "WireDecodeError"]

MAGIC = b"GTWIRE1\x00"

_KIND_PICKLE = 0
_KIND_REQUEST = 1
_KIND_RESPONSE = 2
_KIND_TASKS = 3

_PAD = b"\x00" * 7


def _ints(*values: int) -> bytes:
    return np.array(values, dtype="<i8").tobytes()


def _padded(raw: bytes) -> bytes:
    rem = len(raw) % 8
    return raw if rem == 0 else raw + _PAD[: 8 - rem]


def _ids_bytes(ids: Sequence[int]) -> bytes:
    if isinstance(ids, np.ndarray):
        return np.ascontiguousarray(ids, dtype="<i8").tobytes()
    return np.asarray(ids, dtype="<i8").tobytes()


def encode_batch(messages: Sequence[Message]) -> bytes:
    """Encode a transport batch as one contiguous binary payload."""
    chunks: List[bytes] = [MAGIC, _ints(len(messages))]
    for msg in messages:
        if type(msg) is RequestBatch:
            chunks.append(
                _ints(_KIND_REQUEST, msg.src, msg.dst, len(msg.vertex_ids))
            )
            chunks.append(_ids_bytes(msg.vertex_ids))
        elif type(msg) is ResponseBatch:
            if msg.is_soa:
                # Struct-of-arrays batch: the frame layout *is* the
                # in-memory layout, so encoding is four buffer dumps
                # with no per-vertex Python loop.
                chunks.append(_ints(_KIND_RESPONSE, msg.src, msg.dst,
                                    len(msg.ids)))
                chunks.append(_ids_bytes(msg.ids))
                chunks.append(_ids_bytes(msg.labels))
                chunks.append(
                    np.diff(np.asarray(msg.offsets, dtype="<i8")).tobytes()
                )
                chunks.append(_ids_bytes(msg.adj_concat))
            else:
                n = len(msg.vertices)
                ids = np.empty(n, dtype="<i8")
                labels = np.empty(n, dtype="<i8")
                degrees = np.empty(n, dtype="<i8")
                rows: List[bytes] = []
                for i, (v, label, adj) in enumerate(msg.vertices):
                    ids[i] = v
                    labels[i] = label
                    degrees[i] = len(adj)
                    rows.append(_ids_bytes(adj))
                chunks.append(_ints(_KIND_RESPONSE, msg.src, msg.dst, n))
                chunks.append(ids.tobytes())
                chunks.append(labels.tobytes())
                chunks.append(degrees.tobytes())
                chunks.extend(rows)
        elif type(msg) is TaskBatchTransfer:
            chunks.append(
                _ints(_KIND_TASKS, msg.src, msg.dst, msg.num_tasks,
                      len(msg.payload))
            )
            chunks.append(_padded(msg.payload))
        else:
            raw = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
            chunks.append(_ints(_KIND_PICKLE, msg.src, msg.dst, len(raw)))
            chunks.append(_padded(raw))
    return b"".join(chunks)


class _Cursor:
    """Sequential reader of int64 headers and aligned array payloads.

    Every read is bounds-checked against the buffer end and raises
    :class:`WireDecodeError` on truncation — over a socket a frame can
    arrive short or corrupted, and a raw ``struct.error`` / numpy
    ``ValueError`` out of the decoder would be indistinguishable from a
    framework bug.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, pos: int) -> None:
        self.buf = buf
        self.pos = pos

    def _require(self, nbytes: int, what: str) -> None:
        if nbytes < 0:
            raise WireDecodeError(
                f"negative length ({nbytes} bytes) for {what} at offset {self.pos}"
            )
        if self.pos + nbytes > len(self.buf):
            raise WireDecodeError(
                f"truncated frame: {what} needs {nbytes} bytes at offset "
                f"{self.pos} but the buffer ends at {len(self.buf)}"
            )

    def read_ints(self, count: int, what: str = "int64 header") -> np.ndarray:
        if count < 0:
            raise WireDecodeError(
                f"negative count ({count}) for {what} at offset {self.pos}"
            )
        self._require(8 * count, what)
        out = np.frombuffer(self.buf, dtype="<i8", count=count, offset=self.pos)
        self.pos += 8 * count
        return out

    def read_array(self, count: int, what: str = "int64 array") -> np.ndarray:
        return self.read_ints(count, what)

    def read_bytes(self, length: int, what: str = "byte payload") -> bytes:
        self._require(length, what)
        raw = self.buf[self.pos : self.pos + length]
        self.pos += length + (-length % 8)
        return raw


def _checked_count(value: int, what: str) -> int:
    value = int(value)
    if value < 0:
        raise WireDecodeError(f"negative count ({value}) for {what}")
    return value


def _pickle_loads(raw: bytes, what: str):
    try:
        return pickle.loads(raw)
    except Exception as exc:
        # pickle raises UnpicklingError, EOFError, ValueError,
        # AttributeError, ... depending on where the bytes go wrong;
        # normalize them all to the typed decode error.
        raise WireDecodeError(f"cannot unpickle {what}: {exc!r}") from exc


def decode_batch(payload: bytes) -> List[Message]:
    """Decode one transport payload back into a list of messages.

    Any malformed input — a missing :data:`MAGIC`, truncated frames,
    counts or lengths pointing past the buffer end, negative counts —
    raises :class:`WireDecodeError` rather than leaking ``struct.error``
    / ``UnpicklingError`` / raw ``ValueError``.
    """
    if payload[:8] != MAGIC:
        raise WireDecodeError(
            f"payload does not start with the GTWIRE magic "
            f"(got {bytes(payload[:8])!r})"
        )
    cur = _Cursor(payload, 8)
    count = _checked_count(cur.read_ints(1, "message count")[0], "message count")
    out: List[Message] = []
    for i in range(count):
        kind, src, dst = (
            int(x) for x in cur.read_ints(3, f"frame header of message {i}")
        )
        if kind == _KIND_REQUEST:
            n = _checked_count(cur.read_ints(1, "request id count")[0],
                               "request id count")
            ids = cur.read_array(n, "request vertex ids")
            out.append(RequestBatch(src=src, dst=dst, vertex_ids=ids.tolist()))
        elif kind == _KIND_RESPONSE:
            n = _checked_count(cur.read_ints(1, "response vertex count")[0],
                               "response vertex count")
            ids = cur.read_array(n, "response ids")
            labels = cur.read_array(n, "response labels")
            degrees = cur.read_array(n, "response degrees")
            if n and int(degrees.min()) < 0:
                raise WireDecodeError(
                    f"negative adjacency degree ({int(degrees.min())}) in "
                    f"response frame {i}"
                )
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=offsets[1:])
            adj_concat = cur.read_array(int(offsets[-1]),
                                        "concatenated adjacency rows")
            out.append(ResponseBatch.from_soa(
                src, dst, ids=ids, labels=labels,
                adj_concat=adj_concat, offsets=offsets,
            ))
        elif kind == _KIND_TASKS:
            header = cur.read_ints(2, "task transfer header")
            num_tasks = _checked_count(header[0], "task count")
            length = _checked_count(header[1], "task payload length")
            raw = cur.read_bytes(length, "task batch payload")
            out.append(TaskBatchTransfer(src=src, dst=dst, payload=raw,
                                         num_tasks=num_tasks))
        elif kind == _KIND_PICKLE:
            length = _checked_count(cur.read_ints(1, "pickle frame length")[0],
                                    "pickle frame length")
            raw = cur.read_bytes(length, "pickle frame payload")
            out.append(_pickle_loads(raw, f"pickle frame of message {i}"))
        else:
            raise WireDecodeError(f"unknown wire frame kind {kind}")
    return out
