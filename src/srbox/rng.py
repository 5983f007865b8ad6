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
    """Return a generator keyed by (seed, name), stable across runs.

    The entropy is the seed's low 32-bit word and the name's bytes; a seed
    outside [0, 2**32) appends a sign mark above any byte value and the
    magnitude of its remaining words, so every (seed, name) pair keys its
    own stream."""
    seed = int(seed)
    entropy = [seed & 0xFFFFFFFF, *name.encode("utf-8")]
    high = seed >> 32  # 0 for exactly the seeds in [0, 2**32)
    if high:
        entropy += [0x100 + (high < 0), abs(high)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
