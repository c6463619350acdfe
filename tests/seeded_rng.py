"""Philox streams for the tests, keyed like the library's own generators."""

import numpy as np


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
