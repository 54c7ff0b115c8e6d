"""The client's per-connection decode memo.

A community is the same answer for every vertex inside it, so a client
sees the same packed payload again and again;
:class:`~repro.serve.protocol.DecodeMemo` decodes each distinct one once
per connection. Pinned here:

* **same answers** — decoding through a memo equals decoding without
  one, frame for frame, for ids below and past 2³², in process and
  through a live frontend with two concurrent clients;
* **fresh lists** — mutating a returned ``edge_ids`` list never changes
  a later decode of the same payload;
* **same checks** — every malformed packed object (the
  ``test_wire_packing`` table, deflate bomb included) still fails typed
  with a warm memo, also when its payload is already memoized;
* **bounded** — the held estimate stays within
  :data:`~repro.serve.protocol.DECODE_MEMO_BUDGET_BYTES`, eviction is
  least recently used, and a community over the budget is decoded but
  not stored;
* **per connection** — two clients never share a memo.
"""

import sys
import threading

import numpy as np
import pytest

import repro.serve.protocol as protocol_mod
from repro.community.model import Community
from repro.errors import WireProtocolError
from repro.serve import QueryEngine, ServeClient
from repro.serve.frontend import FrontendConfig, FrontendThread
from repro.serve.loadgen import default_ks
from repro.serve.protocol import (
    DECODE_MEMO_BUDGET_BYTES,
    DecodeMemo,
    decode_frame,
    encode_communities,
    encode_frame,
    ok_response,
    query_response_frame,
    serialize_communities,
)
from tests.serve.test_wire_packing import GOOD, MALFORMED

WIDE = 2**32


def answer_sequence(index):
    """Every ``(vertex, k)`` of the index over ``default_ks(kmax)``, twice
    in a shuffled order, with the engine's answers."""
    engine = QueryEngine(index, cache_size=0)
    kmax = int(index.supernode_trussness.max()) if index.num_supernodes else 2
    pairs = [
        (v, k)
        for v in range(index.graph.num_vertices)
        for k in default_ks(kmax)
    ]
    order = np.random.default_rng(7).permutation(2 * len(pairs)) % len(pairs)
    return [
        (v, k, engine.query(v, k, record=False))
        for v, k in (pairs[i] for i in order.tolist())
    ]


def widened(communities):
    """The same communities with every id shifted past 2³²."""
    return [Community(c.k, c.edge_ids + WIDE, graph=None) for c in communities]


def frames(sequence, wide=False):
    for i, (v, k, communities) in enumerate(sequence):
        if wide:
            communities = widened(communities)
        yield query_response_frame(i, v, k, encode_communities(communities))


# the ids name the range: every id below 2³², or every id past it
@pytest.mark.parametrize("wide", (False, True), ids=("u32", "u64"))
@pytest.mark.parametrize("name", ("er", "rmat", "paper"))
def test_memo_decodes_every_frame_as_without_it(served_store, name, wide):
    _, index, _ = served_store(name)
    sequence = answer_sequence(index)
    memo = DecodeMemo()
    distinct = set()
    for line in frames(sequence, wide):
        plain = decode_frame(line)
        assert decode_frame(line, memo) == plain
        assert decode_frame(line.decode("utf-8"), memo) == plain
        distinct.update(tuple(c["edge_ids"]) for c in plain["communities"])
    # communities repeat across vertices: the memo holds each once
    assert len(memo) == len(distinct) < sum(len(c) for _, _, c in sequence)
    if wide:
        assert all(i >= WIDE for ids in distinct for i in ids), "ids past 2**32"


def test_returned_lists_are_fresh(served_store):
    _, index, _ = served_store("er")
    engine = QueryEngine(index, cache_size=0)
    communities = engine.query(0, 3, record=False)
    assert communities, "vertex 0 of the er graph anchors a 3-truss"
    line = query_response_frame(1, 0, 3, encode_communities(communities))
    expected = serialize_communities(communities)
    memo = DecodeMemo()
    for _ in range(3):  # a miss, then hits
        got = decode_frame(line, memo)["communities"]
        assert got == expected
        got[0]["edge_ids"].append(-1)
        got[0]["edge_ids"][0] = -2
        del got[0]["edge_ids"][1:3]
    assert decode_frame(line, memo)["communities"] == expected


def test_malformed_payloads_fail_typed_with_a_warm_memo():
    memo = DecodeMemo()
    good = encode_frame(ok_response(1, communities=[{"k": 3, "edge_ids_z": GOOD}]))
    assert decode_frame(good, memo)["communities"] == [{"k": 3, "edge_ids": [1, 2]}]
    assert len(memo) == 1
    for case, bad in sorted(MALFORMED.items()):
        frame = encode_frame(ok_response(1, vertex=0, k=3, communities=[bad]))
        with pytest.raises(WireProtocolError):
            decode_frame(frame, memo)
        with pytest.raises(WireProtocolError):
            decode_frame(frame.decode("utf-8"), memo)
        assert len(memo) == 1, case
    # the cached payload itself, in objects of the wrong shape
    for bad in (
        {"k": 3, "edge_ids_z": GOOD, "size": 2},
        {"k": True, "edge_ids_z": GOOD},
        {"k": 3, "edge_ids_z": GOOD, "edge_ids_u32": GOOD},
        {"k": 3, "edge_ids_z": [GOOD]},
    ):
        with pytest.raises(WireProtocolError):
            decode_frame(encode_frame(ok_response(1, communities=[bad])), memo)
    assert decode_frame(good, memo)["communities"] == [{"k": 3, "edge_ids": [1, 2]}]


def packed_frame(ids, k=3):
    community = Community(k, np.asarray(ids, dtype=np.int64), graph=None)
    return query_response_frame(1, 0, k, encode_communities([community]))


@pytest.fixture
def decodes(monkeypatch):
    """Counts the payloads the memo actually decodes (its misses)."""
    calls = []
    real = protocol_mod._decode_ids

    def counting(payload, limit):
        calls.append(payload)
        return real(payload, limit)

    monkeypatch.setattr(protocol_mod, "_decode_ids", counting)
    return calls


def test_estimate_bounds_what_an_entry_holds():
    for ids in (list(range(1000, 1600)), [WIDE + i for i in range(300)]):
        memo = DecodeMemo()
        decode_frame(packed_frame(ids), memo)
        ((payload, held),) = memo._entries.items()
        real = (
            sys.getsizeof(payload) + sys.getsizeof(held)
            + sum(sys.getsizeof(i) for i in held)
        )
        assert real <= memo.nbytes <= DECODE_MEMO_BUDGET_BYTES


def test_eviction_is_lru_within_the_budget(monkeypatch, decodes):
    a, b, c = (packed_frame(range(lo, lo + 400)) for lo in (0, 1000, 2000))
    probe = DecodeMemo()
    decode_frame(a, probe)
    entry = probe.nbytes
    monkeypatch.setattr(protocol_mod, "DECODE_MEMO_BUDGET_BYTES", 2 * entry + entry // 2)
    memo = DecodeMemo()
    decodes.clear()
    for line in (a, b, a, c):  # a is touched after b, so c evicts b
        decode_frame(line, memo)
        assert memo.nbytes <= protocol_mod.DECODE_MEMO_BUDGET_BYTES
    assert len(decodes) == 3 and len(memo) == 2
    decode_frame(a, memo)
    decode_frame(c, memo)
    assert len(decodes) == 3, "a and c stay memoized"
    assert decode_frame(b, memo) == decode_frame(b)
    assert len(decodes) == 5, "b was evicted (the plain decode counts once too)"
    assert memo.nbytes <= protocol_mod.DECODE_MEMO_BUDGET_BYTES


def test_community_over_the_budget_is_decoded_not_stored(monkeypatch, decodes):
    small, giant = packed_frame(range(10)), packed_frame(range(5000))
    probe = DecodeMemo()
    decode_frame(small, probe)
    monkeypatch.setattr(protocol_mod, "DECODE_MEMO_BUDGET_BYTES", 4 * probe.nbytes)
    memo = DecodeMemo()
    decodes.clear()
    decode_frame(small, memo)
    held = memo.nbytes
    for _ in range(2):
        got = decode_frame(giant, memo)
        assert got["communities"] == [{"k": 3, "edge_ids": list(range(5000))}]
        assert len(memo) == 1 and memo.nbytes == held
    assert len(decodes) == 3, "the giant payload is decoded every time"
    decode_frame(small, memo)
    assert len(decodes) == 3, "the stored community was not evicted"


def test_two_live_clients_decode_through_their_own_memos(served_store):
    _, index, store_path = served_store("er")
    sequence = answer_sequence(index)
    expected = [serialize_communities(c) for _, _, c in sequence]
    config = FrontendConfig(store_path=store_path, num_shards=2)
    got: dict[int, list] = {}
    memos = {}
    errors = []

    def run(c):
        try:
            with ServeClient(server.host, server.port, timeout=60.0) as client:
                memos[c] = client.memo
                for i in range(c, len(sequence), 2):
                    v, k, _ = sequence[i]
                    got[i] = client.query(v, k)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    with FrontendThread(config) as server:
        threads = [threading.Thread(target=run, args=(c,)) for c in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors, errors
    assert [got[i] for i in range(len(sequence))] == expected
    assert memos[0] is not memos[1]
    assert len(memos[0]) and len(memos[1])


def test_clients_never_share_a_memo(served_store):
    _, _, store_path = served_store("paper")
    with FrontendThread(FrontendConfig(store_path=store_path, num_shards=1)) as server:
        with ServeClient(server.host, server.port) as a, ServeClient(
            server.host, server.port
        ) as b:
            assert a.memo is not b.memo
            assert a.query(0, 3) and len(a.memo) and not len(b.memo)
            assert b.query(0, 3) == a.query(0, 3)
            assert a.memo._entries.keys() == b.memo._entries.keys()
            assert all(
                a.memo._entries[key] is not b.memo._entries[key]
                for key in a.memo._entries
            )
