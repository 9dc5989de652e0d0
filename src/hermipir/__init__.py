"""X-secure, T-private information retrieval over Hermitian-curve codes.

The package is organised bottom-up:

``fields``     arithmetic in GF(p^n),
``linalg``     dense linear algebra over those fields,
``curve``      the Hermitian curve over GF(q^2), its function spaces and bases,
``codes``      evaluation codes with distance/independence certificates,
``scheme``     the retrieval scheme itself (storage, queries, decoding),
``atlas``      closed-form download rates for four curve families,
``tables``     published reference grids regenerated from the atlas,
``transport``  optional loopback-socket transport for the demo,
``cli``        the ``hermipir`` command-line entry point.
"""

from hermipir.fields import GFField

__all__ = ["GFField"]

__version__ = "0.1.0"
