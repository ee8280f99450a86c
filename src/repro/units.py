"""Unit helpers used throughout the library.

The paper expresses operation latencies in microseconds, distances either in
*cells* (one ion trap, the minimum ballistic move) or in *hops* (one
teleportation link between adjacent T' nodes, nominally 600 cells).  All
internal computations use microseconds and cells; these helpers exist so call
sites state their units explicitly instead of passing bare floats around.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Number of microseconds in a millisecond / second, for report formatting.
US_PER_MS = 1_000.0
US_PER_S = 1_000_000.0

#: Default number of ballistic cells spanned by one teleportation hop.  The
#: paper derives ~600 cells as the distance at which teleportation becomes
#: faster than ballistic movement (Section 4.6) and adopts it as the hop size.
DEFAULT_CELLS_PER_HOP = 600


def microseconds(value: float) -> float:
    """Return ``value`` interpreted as microseconds (identity, for clarity)."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to microseconds."""
    return float(value) * US_PER_MS


def seconds(value: float) -> float:
    """Convert seconds to microseconds."""
    return float(value) * US_PER_S


def format_duration(value_us: float) -> str:
    """Render a duration with a human-friendly unit.

    >>> format_duration(0.5)
    '0.500 us'
    >>> format_duration(2500)
    '2.500 ms'
    >>> format_duration(3.2e6)
    '3.200 s'
    """
    if value_us < 0:
        raise ConfigurationError(f"duration must be non-negative, got {value_us}")
    if value_us >= US_PER_S:
        return f"{value_us / US_PER_S:.3f} s"
    if value_us >= US_PER_MS:
        return f"{value_us / US_PER_MS:.3f} ms"
    return f"{value_us:.3f} us"
