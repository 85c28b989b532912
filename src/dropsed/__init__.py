"""Numerics for sedimenting-droplet patches in slow viscous flow.

Subpackages cover the exact traveling-wave patches and their separation
certificates, the nonlocal hyperbolic model of the droplet surface, the
linearized operator and its Galerkin spectrum, the Oseen-coupled particle
cloud, and the quadrature/basis machinery underneath them all.
"""

import importlib

__version__ = "0.3.0"

_SUBMODULES = ("cli", "kernels", "linear_stability", "micro_sim", "patch_waves", "quadrature",
               "surface_evolution")


def __getattr__(name: str):
    # Submodules load on first use (PEP 562), so ``import dropsed.cli`` pulls in
    # no numpy and the CLI's --threads cap is set before BLAS starts its pools.
    # Each runner then imports only what it computes with: ``dropsed patch``
    # loads no numpy, and ``micro`` samples its cloud from a SplitMix64
    # stream, so nothing loads numpy.random (or the hashlib and OpenSSL
    # behind it).
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
