"""Journal protocol: publish → replay equals a from-scratch rebuild.

``DynamicEquiTruss.publish_to`` journals every update batch; an attached
reader replaying them must land on the same trussness (and equivalent
supergraph) as rebuilding the index from the mutated graph. Swaps move
the store generation; readers detect them and re-attach; a journal whose
epoch no longer matches is stale, never silently replayed.
"""

import numpy as np
import pytest

from repro.community import search_communities
from repro.equitruss.dynamic import DynamicEquiTruss
from repro.equitruss.pipeline import build_index
from repro.errors import CorruptStoreError, StaleStoreError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm, paper_example_graph
from repro.store import attach_store
from repro.store.journal import (
    JournalReader,
    StoreJournal,
    default_journal_path,
)


@pytest.fixture
def built(tmp_path):
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(120, 700, seed=3))
    result = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx")
    return g, result


def _mutate(g, journal, *, seed=0, inserts=6, removes=3):
    """Writer-side dynamic maintenance publishing to ``journal``."""
    dyn = DynamicEquiTruss(g, "afforest")
    dyn.publish_to(journal)
    rng = np.random.default_rng(seed)
    us = rng.integers(0, g.num_vertices, size=inserts)
    vs = rng.integers(0, g.num_vertices, size=inserts)
    keep = us != vs
    dyn.insert_edges(us[keep], vs[keep])
    dyn.remove_edges(g.edges.u[:removes].copy(), g.edges.v[:removes].copy())
    return dyn


def assert_same_communities(index_a, index_b, vertices, ks=(3, 4)):
    for q in vertices:
        for k in ks:
            a = search_communities(index_a, q, k)
            b = search_communities(index_b, q, k)
            assert len(a) == len(b), (q, k)
            for x, y in zip(a, b):
                assert x.k == y.k
                assert np.array_equal(x.edge_ids, y.edge_ids), (q, k)


def test_replay_matches_scratch_rebuild(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    dyn = _mutate(g, journal)
    assert journal.generation == 3  # base 1 + insert batch + remove batch
    assert len(journal) == 2

    store = attach_store(result.store_path)
    engine = store.engine()
    assert store.pending_updates() == 2
    report = store.refresh()
    assert report.applied == 2 and not report.swapped
    assert report.generation == 3
    assert store.pending_updates() == 0

    scratch = build_index(dyn.graph, "afforest").index
    assert np.array_equal(store.index.trussness, scratch.trussness)
    assert store.index.num_supernodes == scratch.num_supernodes
    assert store.index.num_superedges == scratch.num_superedges
    assert_same_communities(
        store.index, scratch, range(0, g.num_vertices, 7)
    )
    # the rebound engine serves from the replayed index
    got = engine.query(5, 3)
    expected = search_communities(scratch, 5, 3)
    assert len(got) == len(expected)
    store.close()


def test_refresh_without_updates_is_noop(built):
    _, result = built
    with attach_store(result.store_path) as store:
        report = store.refresh()
        assert report.applied == 0 and not report.swapped
        assert store.pending_updates() == 0


def test_incremental_polls_see_only_new_batches(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    dyn = DynamicEquiTruss(g, "afforest")
    dyn.publish_to(journal)
    store = attach_store(result.store_path)
    dyn.insert_edges([0], [50])
    assert store.refresh().applied == 1
    dyn.insert_edges([1], [60])
    dyn.insert_edges([2], [70])
    report = store.refresh()
    assert report.applied == 2 and report.generation == 4
    scratch = build_index(dyn.graph, "afforest").index
    assert np.array_equal(store.index.trussness, scratch.trussness)
    store.close()


def test_refresh_until_stops_the_replay_at_that_generation(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    dyn = DynamicEquiTruss(g, "afforest")
    dyn.publish_to(journal)
    dyn.insert_edges([0], [50])
    middle = dyn.graph
    dyn.insert_edges([1], [60])
    with attach_store(result.store_path) as store:
        report = store.refresh(until=2)
        assert report.applied == 1 and report.generation == 2
        assert store.pending_updates() == 1
        scratch = build_index(middle, "afforest").index
        assert np.array_equal(store.index.trussness, scratch.trussness)
        assert store.refresh(until=2).applied == 0
        assert store.refresh().generation == 3


def test_swap_triggers_reattach_and_engine_rebind(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    dyn = _mutate(g, journal)
    store = attach_store(result.store_path)
    engine = store.engine()

    # rebuild absorbs the journal: new generation past every entry
    build_index(dyn.graph, "afforest", store_path=result.store_path,
                store_generation=journal.generation + 1)
    journal.reset(journal.generation + 1)

    assert store.is_stale()
    report = store.refresh()
    assert report.swapped and report.generation == 4
    assert store.components is not None  # re-attach restored stored tables
    scratch = build_index(dyn.graph, "afforest").index
    assert np.array_equal(store.index.trussness, scratch.trussness)
    expected = search_communities(scratch, 3, 3)
    got = engine.query(3, 3)
    assert len(got) == len(expected)
    store.close()


def test_stale_journal_epoch_raises(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    # store swapped to generation 9; the old journal (epoch 1) is stale
    build_index(g, "afforest", store_path=result.store_path,
                store_generation=9)
    with pytest.raises(StaleStoreError, match="epoch"):
        StoreJournal.for_store(result.store_path)
    reader = JournalReader(journal.path, base_generation=9)
    with pytest.raises(StaleStoreError, match="re-attach"):
        reader.poll()
    # reset starts a fresh epoch and both sides work again
    journal.reset(9)
    assert StoreJournal.for_store(result.store_path).generation == 9
    assert JournalReader(journal.path, base_generation=9).poll() == []


def test_incomplete_trailing_line_is_deferred(built):
    g, result = built
    journal = StoreJournal.for_store(result.store_path)
    journal.append("insert", [0], [5])
    jpath = default_journal_path(result.store_path)
    with open(jpath, "a", encoding="utf-8") as f:
        f.write('{"generation": 3, "op": "insert", "u": [1], "v"')  # torn
    reader = JournalReader(jpath, base_generation=1)
    entries = reader.poll()
    assert [e.generation for e in entries] == [2]
    # writer finishes the line → next poll picks it up
    with open(jpath, "a", encoding="utf-8") as f:
        f.write(': [6], "unix": 0}\n')
    assert [e.generation for e in reader.poll()] == [3]


def test_generation_gap_is_corruption(built):
    _, result = built
    journal = StoreJournal.for_store(result.store_path)
    journal.append("insert", [0], [5])
    jpath = default_journal_path(result.store_path)
    with open(jpath, "a", encoding="utf-8") as f:
        f.write('{"generation": 7, "op": "insert", "u": [1], "v": [6]}\n')
    with pytest.raises(CorruptStoreError, match="gap"):
        JournalReader(jpath, base_generation=1).poll()


def test_journal_survives_paper_example(tmp_path):
    g = CSRGraph.from_edgelist(paper_example_graph())
    result = build_index(g, "afforest", store_path=tmp_path / "p.eqtsidx")
    journal = StoreJournal.for_store(result.store_path)
    dyn = DynamicEquiTruss(g, "afforest")
    dyn.publish_to(journal)
    dyn.insert_edges([1, 2], [9, 10])
    with attach_store(result.store_path) as store:
        assert store.refresh().applied == 1
        scratch = build_index(dyn.graph, "afforest").index
        assert np.array_equal(store.index.trussness, scratch.trussness)
        assert_same_communities(store.index, scratch,
                                range(g.num_vertices), ks=(3, 4, 5))
