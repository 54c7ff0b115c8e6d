"""Serial floor guard for the fused Init.

``CSRGraph.from_edgelist`` sorts only the backward half of the
adjacency; the keyed build it replaced (:func:`keyed_csr`) sorts all 2m
slots by ``src·n + dst``. The fused build must stay within 20% of the
keyed one on the Orkut stand-in. Both are timed in the same process,
best of three, so host-speed drift cannot mask or fake a regression.
"""

import numpy as np

from repro.graph import CSRGraph
from repro.graph.datasets import load_dataset
from tests.graph.keyed_oracle import keyed_csr
from tests.timing import best_of

#: Fused-vs-keyed serial wall-clock ceiling.
SERIAL_FLOOR_RATIO = 1.20


def test_fused_init_within_serial_floor_of_keyed_build():
    edges = load_dataset("orkut")
    t_keyed, keyed = best_of(keyed_csr, edges)
    t_fused, fused = best_of(CSRGraph.from_edgelist, edges)
    for field in ("indptr", "indices", "edge_ids"):
        assert np.array_equal(getattr(fused, field), getattr(keyed, field)), field
    assert t_fused <= SERIAL_FLOOR_RATIO * t_keyed, (
        f"fused Init {t_fused:.4f}s > {SERIAL_FLOOR_RATIO}x "
        f"keyed {t_keyed:.4f}s"
    )
