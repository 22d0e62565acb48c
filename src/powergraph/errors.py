"""Exception types shared across the package."""


class PowerGraphError(Exception):
    """Base class for all package errors."""


class InputError(PowerGraphError):
    """Malformed or out-of-contract input."""


class ParseError(InputError):
    """Malformed graph or instance file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeCapError(PowerGraphError):
    """An exact search passed its budget of exact.SEARCH_NODES nodes."""


class ConnectivityError(PowerGraphError):
    """Operation requires a connected graph."""


class BandwidthError(PowerGraphError):
    """A node tried to send a message exceeding the per-edge budget."""

    def __init__(self, node, round_index, bits, limit_bits):
        super().__init__(
            f"node {node} sent {bits} bits in round {round_index} "
            f"(limit {limit_bits} bits)"
        )
        self.node = node
        self.round_index = round_index


class EncodingError(PowerGraphError):
    """A value does not fit the wire encoding."""


class RoundCapError(PowerGraphError):
    """Simulation exceeded its round cap without terminating."""


class GenerationError(PowerGraphError):
    """Randomized generation failed within its retry budget."""


class ContractError(PowerGraphError):
    """A caller-supplied object violates a documented precondition."""
