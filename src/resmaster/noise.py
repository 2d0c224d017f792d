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

INIT_STEP = 0


def noise_stream(seed: int, step: int) -> np.random.Generator:
    """Independent generator for one (seed, step) substream."""
    if seed < 0 or step < 0:
        raise ValueError(f"stream keys must be non-negative, got ({seed}, {step})")
    ss = np.random.SeedSequence((int(seed), int(step)))
    return np.random.Generator(np.random.SFC64(ss))


def standard_normal_field(seed: int, step: int, shape) -> np.ndarray:
    """Standard-normal grid drawn from the (seed, step) substream."""
    return noise_stream(seed, step).standard_normal(shape)
