"""Shared exception types."""


class RetroloopError(Exception):
    """Base class for all package errors."""


class InvalidInput(RetroloopError, ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class InvalidConfig(RetroloopError, ValueError):
    """A configuration value is out of range or inconsistent."""


class UnknownTemplate(RetroloopError, KeyError):
    """A template id is not present in the relevant index."""


class InvalidReaction(RetroloopError, ValueError):
    """A reaction's template does not reproduce its reactants."""


class EmptyDataset(RetroloopError, ValueError):
    """An operation that requires data received none."""


class NotSolved(RetroloopError, RuntimeError):
    """Route extraction was requested from a tree whose root is unsolved."""


class CapExceeded(RetroloopError, RuntimeError):
    """The exhaustive oracle hit its exploration cap; results are unusable."""


class CheckpointError(RetroloopError, ValueError):
    """A model checkpoint file is malformed or dimensionally inconsistent."""
