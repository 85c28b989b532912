"""The continuum velocity field of the rescaled uniform cloud.

In the rescaled frame the cloud is the unit ball, and the interactions of its
N - 1 neighbours spread a uniform force density over it.  The Oseen kernel
integrated over the unit ball, with the Newtonian potential 2 pi (1 - |x|^2 / 3)
and its biharmonic analogue pi (1 + 2 |x|^2 / 3 - |x|^4 / 15), gives inside it

    u(x) = -(15/4) [(1/3 - 2 |x|^2 / 15) e3 + x x3 / 15].

Its mean over the ball is -e3, the rescaled wave speed, and on |x| = 1 its
normal part equals that of the translation -e3: the ball falls rigidly.
"""

from __future__ import annotations

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


def continuum_velocity(x: np.ndarray) -> np.ndarray:
    """u at the (M, 3) points x inside the unit ball, as an (M, 3) array."""
    r2 = np.sum(x * x, axis=1, keepdims=True)
    return -3.75 * ((1.0 / 3.0 - 2.0 * r2 / 15.0) * E3 + x * x[:, 2:3] / 15.0)
