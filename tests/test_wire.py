"""Tests for the binary IPC wire format and the binary task codec."""

import pickle

import numpy as np
import pytest

from repro.core.api import Task
from repro.core.containers import deserialize_tasks, serialize_tasks
from repro.net import wire
from repro.net.message import (
    Message,
    RequestBatch,
    ResponseBatch,
    TaskBatchTransfer,
)


def _roundtrip(messages):
    return wire.decode_batch(wire.encode_batch(messages))


def test_request_batch_roundtrip():
    (out,) = _roundtrip([RequestBatch(src=2, dst=5, vertex_ids=[9, 1, 9])])
    assert (out.src, out.dst) == (2, 5)
    assert out.vertex_ids == [9, 1, 9]
    assert all(type(v) is int for v in out.vertex_ids)


def test_response_batch_roundtrip_mixed_row_types():
    msg = ResponseBatch(src=0, dst=1, vertices=[
        (5, 0, np.array([1, 2, 3], dtype=np.int64)),
        (7, 4, ()),                     # empty tuple row
        (9, 0, (2, 4, 6)),              # tuple row
        (11, 2, np.empty(0, dtype=np.int64)),
    ])
    (out,) = _roundtrip([msg])
    rows = {v: (label, adj) for v, label, adj in out.vertices}
    assert rows[5][1].tolist() == [1, 2, 3]
    assert rows[7][0] == 4 and rows[7][1].size == 0
    assert rows[9][1].tolist() == [2, 4, 6]
    assert rows[11][0] == 2 and rows[11][1].size == 0
    # ids/labels come back as python ints, adjacency as read-only int64
    for v, label, adj in out.vertices:
        assert type(v) is int and type(label) is int
        assert isinstance(adj, np.ndarray) and adj.dtype == np.int64
        assert not adj.flags.writeable


def test_decoded_rows_are_views_into_one_buffer():
    msg = ResponseBatch(src=0, dst=1, vertices=[
        (1, 0, np.arange(10, dtype=np.int64)),
        (2, 0, np.arange(20, dtype=np.int64)),
    ])
    (out,) = _roundtrip([msg])
    a = out.vertices[0][2]
    b = out.vertices[1][2]
    assert a.base is not None and b.base is not None  # zero-copy frombuffer


def test_task_transfer_roundtrip_unaligned_payload():
    for payload in (b"", b"x", b"12345678", b"123456789"):
        (out,) = _roundtrip([TaskBatchTransfer(src=1, dst=0, payload=payload,
                                               num_tasks=3)])
        assert out.payload == payload
        assert out.num_tasks == 3


def test_unknown_message_type_falls_back_to_pickle_frame():
    (out,) = _roundtrip([Message(src=3, dst=4)])
    assert type(out) is Message and (out.src, out.dst) == (3, 4)


def test_mixed_batch_preserves_order():
    msgs = [
        RequestBatch(src=0, dst=1, vertex_ids=[1]),
        ResponseBatch(src=1, dst=0, vertices=[(1, 0, (2,))]),
        TaskBatchTransfer(src=0, dst=1, payload=b"abc", num_tasks=1),
    ]
    out = _roundtrip(msgs)
    assert [type(m) for m in out] == [type(m) for m in msgs]


def test_pickled_batch_rejected_without_unpickling(monkeypatch):
    """A payload without the GTWIRE magic is refused outright: the
    decoder never hands outside bytes to ``pickle.loads``."""
    msgs = [RequestBatch(src=0, dst=1, vertex_ids=[4, 5])]
    payload = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)

    calls = []

    def no_unpickling(*args, **_kw):
        # Recorded, not only raised: the decoder normalizes any error
        # from pickle into WireDecodeError, which would hide a raise.
        calls.append(args)
        raise RuntimeError("pickle.loads called on a non-GTWIRE payload")

    monkeypatch.setattr(pickle, "loads", no_unpickling)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)
    assert calls == []


def test_binary_response_payload_smaller_than_pickle():
    """The struct-of-arrays frame beats pickling ndarray rows."""
    rng = np.random.default_rng(3)
    vertices = [
        (int(v), 0, np.unique(rng.integers(0, 10**6, size=30)))
        for v in range(64)
    ]
    msgs = [ResponseBatch(src=0, dst=1, vertices=vertices)]
    binary = wire.encode_batch(msgs)
    pickled = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(binary) < len(pickled)


# -- task codec -------------------------------------------------------------


def test_task_codec_roundtrip():
    t = Task(context=(3, 4))
    t.pull(10)
    t.pull(11)
    t.g.add_vertex(1, (2, 3), label=7)
    t.g.add_vertex(2, np.array([1, 3], dtype=np.int64))
    payload = serialize_tasks([t])
    assert payload[:8] == b"GTTASK1\x00"
    (out,) = deserialize_tasks(payload)
    assert out.context == (3, 4)
    assert out.pending_pulls() == (10, 11)
    assert out.g.neighbors(1) == (2, 3)
    assert out.g.label(1) == 7
    assert out.g.neighbors(2) == (1, 3)
    assert out.g.label(2) == 0
    assert out.task_id == -1


def test_task_codec_context_kinds():
    cases = [None, 5, (1, 2), {"rich": [1]}, "str", (1, "mixed")]
    payload = serialize_tasks([Task(context=c) for c in cases])
    out = deserialize_tasks(payload)
    assert [t.context for t in out] == cases


def test_task_codec_invalidates_task_ids():
    t = Task(context=1)
    t.task_id = 0xBEEF
    deserialize_tasks(serialize_tasks([t]))
    assert t.task_id == -1  # invalidated in place, as before


def test_task_codec_pickle_fallback_for_inflight_pulls():
    t = Task(context=1)
    t.pulls_in_flight = [42]
    payload = serialize_tasks([t])
    assert payload[:8] != b"GTTASK1\x00"
    (out,) = deserialize_tasks(payload)
    assert out.pulls_in_flight == [42]


def test_task_codec_legacy_pickle_payload_decodes():
    t = Task(context=9)
    legacy = pickle.dumps([t], protocol=pickle.HIGHEST_PROTOCOL)
    (out,) = deserialize_tasks(legacy)
    assert out.context == 9


# ---------------------------------------------------------------------------
# Decode hardening: truncated / corrupt payloads raise WireDecodeError
# ---------------------------------------------------------------------------


def _messages_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, RequestBatch):
        return (a.src, a.dst, list(a.vertex_ids)) == (b.src, b.dst,
                                                      list(b.vertex_ids))
    if isinstance(a, ResponseBatch):
        return (a.src, a.dst) == (b.src, b.dst) and [
            (v, l, adj.tolist()) for v, l, adj in a.vertices
        ] == [(v, l, adj.tolist()) for v, l, adj in b.vertices]
    if isinstance(a, TaskBatchTransfer):
        return (a.src, a.dst, a.num_tasks, bytes(a.payload)) == (
            b.src, b.dst, b.num_tasks, bytes(b.payload))
    return a.src == b.src and a.dst == b.dst


class _OddMessage(Message):
    """A message type without a dedicated frame (pickle fallback)."""

    def __init__(self, src, dst, blob):
        super().__init__(src=src, dst=dst)
        self.blob = blob


_FRAME_CASES = {
    "request": [RequestBatch(src=0, dst=1, vertex_ids=[9, 1, 9])],
    "response": [ResponseBatch(src=0, dst=1, vertices=[
        (5, 0, np.array([1, 2, 3], dtype=np.int64)),
        (7, 4, ()),
    ])],
    "tasks": [TaskBatchTransfer(src=1, dst=0, payload=b"abcde", num_tasks=2)],
    "pickle": [_OddMessage(src=0, dst=1, blob={"k": [1, 2]})],
    "mixed": [
        RequestBatch(src=0, dst=1, vertex_ids=[4]),
        ResponseBatch(src=1, dst=0, vertices=[(4, 0, np.array([5],
                                                             dtype=np.int64))]),
        TaskBatchTransfer(src=1, dst=0, payload=b"xyz", num_tasks=1),
        _OddMessage(src=0, dst=1, blob=None),
    ],
}


@pytest.mark.parametrize("kind", sorted(_FRAME_CASES))
def test_truncation_at_every_boundary_raises_or_decodes_whole(kind):
    """Cutting the payload at *every* byte offset must either raise the
    typed WireDecodeError or — when the cut only removed trailing
    alignment padding — decode to the identical batch.  No raw
    struct/numpy/pickle errors may escape."""
    msgs = _FRAME_CASES[kind]
    payload = wire.encode_batch(msgs)
    full = wire.decode_batch(payload)
    clean_decodes = 0
    for cut in range(len(payload)):
        try:
            decoded = wire.decode_batch(payload[:cut])
        except wire.WireDecodeError:
            continue
        clean_decodes += 1
        assert len(decoded) == len(full)
        assert all(_messages_equal(x, y) for x, y in zip(decoded, full))
    # Only padding-only cuts may decode; there are at most 7 pad bytes
    # per variable-length frame, so clean decodes are rare.
    assert clean_decodes <= 7 * len(msgs)


def test_wire_decode_error_is_value_error():
    with pytest.raises(ValueError):  # old callers guarded ValueError
        wire.decode_batch(wire.encode_batch(
            [RequestBatch(src=0, dst=1, vertex_ids=[1, 2])]
        )[:12])


def test_corrupt_magic_with_unpicklable_tail_raises():
    payload = bytearray(wire.encode_batch(
        [RequestBatch(src=0, dst=1, vertex_ids=[1])]
    ))
    payload[0] ^= 0xFF  # not MAGIC, not a valid pickle either
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(bytes(payload))


def test_empty_payload_raises():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(b"")


def _header(*values):
    return np.array(values, dtype="<i8").tobytes()


def test_negative_message_count_raises():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(wire.MAGIC + _header(-1))


def test_negative_id_count_raises():
    payload = wire.MAGIC + _header(1) + _header(1, 0, 1) + _header(-4)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_negative_response_degree_raises():
    # One response frame, one vertex, degree -1: a negative cumsum would
    # otherwise produce nonsense adjacency slices.
    payload = (wire.MAGIC + _header(1) + _header(2, 0, 1) + _header(1)
               + _header(7) + _header(0) + _header(-1))
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_unknown_frame_kind_raises():
    payload = wire.MAGIC + _header(1) + _header(99, 0, 1)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_count_pointing_past_buffer_raises():
    # Claims 1 << 40 vertex ids but provides none.
    payload = wire.MAGIC + _header(1) + _header(1, 0, 1) + _header(1 << 40)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)
