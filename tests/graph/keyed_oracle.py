"""The keyed order check ``EdgeList`` ran before its keys became lazy.

It validates exactly as the old constructor did, in the same order and
with the same messages: materialize ``keys = u·n + v`` and require
``diff(keys) > 0``. ``EdgeList`` now checks the order with compares of
neighbouring pairs and builds no keys; the property tests in
``test_edgelist_checks.py`` pin the two to the same verdicts.
"""

import numpy as np

from repro.errors import GraphConstructionError
from repro.utils.validation import check_array_1d


def keyed_check(u, v, num_vertices: int) -> np.ndarray:
    """Validate a canonical edge list the keyed way; return its keys."""
    u = check_array_1d("u", np.ascontiguousarray(u, dtype=np.int64), "iu")
    v = check_array_1d("v", np.ascontiguousarray(v, dtype=np.int64), "iu")
    if u.shape != v.shape:
        raise GraphConstructionError(
            f"endpoint arrays differ in length: {u.shape} vs {v.shape}"
        )
    if u.size:
        if int(u.min()) < 0:
            raise GraphConstructionError("negative vertex id in edge list")
        if int(v.max()) >= num_vertices:
            raise GraphConstructionError(
                f"vertex id {int(v.max())} >= num_vertices={num_vertices}"
            )
        if not np.all(u < v):
            raise GraphConstructionError("edges must be canonical (u < v)")
    keys = u * np.int64(num_vertices) + v
    if u.size and not np.all(np.diff(keys) > 0):
        raise GraphConstructionError(
            "edges must be sorted by (u, v) and free of duplicates"
        )
    return keys
