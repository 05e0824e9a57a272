"""Limit-cycle replication via separable Chebyshev pullbacks.

Exact polynomial layer (rationals throughout), branch structure of the
cover, pullback construction with symbolic verification, numerical cycle
location and lifting, and the replication lower-bound tables.
"""

__version__ = "0.1.0"
