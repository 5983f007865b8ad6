"""Named random substreams derived from a single run seed.

Every component draws from its own substream so that, e.g., changing the
number of negatives sampled does not perturb query generation. Substreams
are independent and fully determined by (seed, name).
"""

from __future__ import annotations

import numpy as np

# Canonical stream names used by the CLI; components accept any name.
STREAM_NEGATIVES = "negatives"
STREAM_INIT = "init"
STREAM_QUERY_GEN = "query-gen"
STREAM_TRAIN = "train"


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator keyed by (seed, name), stable across runs."""
    entropy = [int(seed) & 0xFFFFFFFF] + list(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy))
