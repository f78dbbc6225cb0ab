"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An operation was asked to enumerate past its configured bound."""


class IdentityViolationError(RuntimeError):
    """Two computation paths that must agree produced different values."""


class UnknownIdentityError(ValueError):
    """The requested identity name is not registered."""
