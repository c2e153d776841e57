"""The shared exception type."""


class ParameterError(ValueError):
    """A request is rejected: a parameter is outside the range a formula or
    constructor supports, or a topology exceeds the instance-size budget."""
