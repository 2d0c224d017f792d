"""Keyed noise streams for reproducible sampling.

Every (seed, step) pair is hashed by ``SeedSequence`` into the state of its
own SFC64 generator, from which that step draws its one noise grid. Each
stream is read once from its start, so no counter-based access is needed,
and SFC64 is the fastest of numpy's bit generators at drawing a grid. Step 0
is reserved for the initial draw of the fully-noised grid; sampling steps use
t >= 1.
"""

from __future__ import annotations

import numpy as np

from .util import as_int

INIT_STEP = 0


def noise_stream(seed: int, step: int) -> np.random.Generator:
    """Independent generator for one (seed, step) substream, keys >= 0."""
    ss = np.random.SeedSequence((as_int(seed, "seed", minimum=0), as_int(step, "step", minimum=0)))
    return np.random.Generator(np.random.SFC64(ss))


def standard_normal_field(seed: int, step: int, shape) -> np.ndarray:
    """Standard-normal grid drawn from the (seed, step) substream."""
    return noise_stream(seed, step).standard_normal(shape)
