"""Serving never imports scipy.

The build groups and enumerates with ``scipy.sparse``, imported inside
those functions only. The serve stack imports the same modules
(``repro.utils.sorting`` through ``repro.cc.core``), so a module-level
import would add about 22 MB resident to the frontend and to every
shard. A fresh interpreter attaches a built store the way a shard does,
answers one ``query_many`` and must still have no ``scipy`` module.
"""

import json
import os
import subprocess
import sys

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import rmat_graph

import repro

_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import repro.serve.frontend
from repro.serve.shard import ShardWorker

worker = ShardWorker({path!r}, 0, 1)
answers = worker.engine.query_many(list(range(16)), 3)
worker.close()
print(json.dumps({{
    "communities": sum(len(a) for a in answers),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}}))
"""


def test_attach_and_query_import_no_scipy(tmp_path):
    path = tmp_path / "g.eqtsidx"
    graph = CSRGraph.from_edgelist(rmat_graph(6, 8, seed=2))
    build_index(graph, "afforest", store_path=path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=src, path=str(path))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["communities"] > 0
    assert out["scipy"] == []
