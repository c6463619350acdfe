"""Philox streams for the tests, keyed like the library's own generators."""

import numpy as np


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
