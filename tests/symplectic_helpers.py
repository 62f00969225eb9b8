"""Random symplectic matrices for the tests; scipy is needed only here."""

import numpy as np
from scipy.linalg import expm

from rfhlab.symlin import random_symmetric, standard_jmat


def random_symplectic(m: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(J S) with S random symmetric: J S lies in
    the Lie algebra of Sp(2m), so its exponential lies in Sp(2m)."""
    return expm(standard_jmat(m) @ random_symmetric(2 * m, rng, scale))
