"""Exception hierarchy shared across the package."""


class SPGameError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SPGameError):
    """Malformed or invalid input (game data, oracle data, JSON)."""


class NoTerminalPath(InputError):
    """The start vertex cannot reach any terminal vertex."""


class InvalidSubset(InputError):
    """A queried arc set is not a subset of the vertex's outgoing arcs."""


class OracleViolation(SPGameError):
    """An independence oracle returned answers inconsistent with a
    downward-closed system (or with the required boundary conditions)."""


class PreconditionViolated(SPGameError):
    """A construction was called on a game that does not satisfy its
    entry conditions."""


class BlockerExists(PreconditionViolated):
    """Requested a no-blocking construction, but some worst-case distance
    is infinite."""


class WeakPlayerCanForce(PreconditionViolated):
    """Requested a terminal construction for a player that can in fact
    force infinite cost."""


class CapExceeded(SPGameError):
    """An enumeration exceeded the configured work cap."""


class InternalInvariantError(SPGameError):
    """A run-time self-check failed; indicates a bug, not bad input."""
