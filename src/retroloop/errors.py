"""Shared exception types."""


class InvalidInput(ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class InvalidConfig(ValueError):
    """A configuration value is out of range or inconsistent."""


class UnknownTemplate(KeyError):
    """A template id is not present in the relevant index."""


class InvalidReaction(ValueError):
    """A reaction's template does not reproduce its reactants."""


class EmptyDataset(ValueError):
    """An operation that requires data received none."""


class NotSolved(RuntimeError):
    """Route extraction was requested from a tree whose root is unsolved."""


class CapExceeded(RuntimeError):
    """The exhaustive oracle hit its exploration cap; results are unusable."""


class CheckpointError(ValueError):
    """A model checkpoint file is malformed or dimensionally inconsistent."""
