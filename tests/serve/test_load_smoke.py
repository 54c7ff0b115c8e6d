"""Load smoke: both traffic models and the SLO exposition, live.

A 2-shard :class:`~repro.serve.frontend.FrontendThread` over a small
store is driven by a short closed loop at two clients and a short open
loop at a fixed rate (:mod:`repro.serve.loadgen`); then the merged
Prometheus exposition (``ServeClient.metrics_prometheus``) must carry
every serving SLO series an operator reads: the frontend latency
histogram and its p99 companion, the coalesced batch size, the shard's
batch and encode histograms, and the engine memo's bytes.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import ServeClient
from repro.serve.frontend import FrontendConfig, FrontendThread
from repro.serve.loadgen import closed_loop, default_ks, discover_universe, open_loop

SECONDS = 0.5
OPEN_RATE = 200.0
SLO_SERIES = (
    "repro_serve_frontend_latency_ms_bucket",
    "repro_serve_frontend_latency_ms_p99",
    "repro_serve_frontend_coalesce_batch_size_bucket",
    "repro_serve_shard_batch_ms_bucket",
    "repro_serve_shard_encode_ms_bucket",
    "repro_serve_engine_memo_bytes",
)


@pytest.fixture(scope="module")
def load_run(served_store):
    """(closed report, open report, exposition text) of one live run."""
    _, _, store_path = served_store("er")
    config = FrontendConfig(store_path=store_path, num_shards=2)
    with use_registry(MetricsRegistry()), FrontendThread(config) as server:
        host, port = server.host, server.port
        num_vertices, kmax = discover_universe(host, port)
        ks = default_ks(kmax)
        closed = closed_loop(host, port, clients=2, seconds=SECONDS,
                             num_vertices=num_vertices, ks=ks, seed=1)
        opened = open_loop(host, port, rate=OPEN_RATE, seconds=SECONDS,
                           num_vertices=num_vertices, ks=ks, seed=1)
        with ServeClient(host, port) as client:
            prom = client.metrics_prometheus()
    return closed, opened, prom


def test_closed_loop_at_two_clients_answers_everything(load_run):
    closed, _, _ = load_run
    assert closed.clients == 2
    assert closed.achieved_qps > 0
    assert closed.rejected == 0
    assert closed.shard_errors == closed.other_errors == 0
    assert closed.ok == closed.sent


def test_open_loop_returns_a_report(load_run):
    _, opened, _ = load_run
    assert opened.mode == "open" and opened.offered_qps == OPEN_RATE
    assert opened.sent > 0 and opened.ok > 0
    assert opened.percentile_ms(99) is not None


def test_exposition_carries_the_slo_series(load_run):
    _, _, prom = load_run
    missing = [s for s in SLO_SERIES if s not in prom]
    assert not missing, f"missing from the exposition: {missing}"
