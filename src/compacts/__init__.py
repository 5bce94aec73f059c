"""Compacts: declarative, violable contracts over a simulated permissioned ledger.

Events pass admission control into a hash-chained, proof-of-work ledger;
a deterministic evaluator computes each norm instance's lifecycle state
from the active chain; violations activate governance norms of the
organizational context; terminal outcomes feed evidential trust scores.
"""

__version__ = "0.1.0"
