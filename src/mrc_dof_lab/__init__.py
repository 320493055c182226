"""Degrees-of-freedom laboratory for the K-user MIMO multi-way relay channel.

Implements the signal-space-alignment transmission scheme with common
messages (alignment at the relay, network coding at the users), the
matching cut-set bounds and regime table, and Monte Carlo plus closed-form
verification utilities behind a reproducible command-line interface.
"""

__version__ = "0.2.0"

from . import analysis, bounds, channel, linalg, ssa_nc  # noqa: F401
