"""Exception hierarchy shared across the package."""


class RankkitError(Exception):
    """Base class for all package-specific errors."""


# --- permutation validation ---


class PermutationError(RankkitError):
    pass


class WrongLength(PermutationError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"expected {expected} indices, got {actual}")
        self.expected = expected
        self.actual = actual


class OutOfRange(PermutationError):
    def __init__(self, position: int, value: int, n: int):
        super().__init__(f"index {value} at position {position} outside 1..{n}")
        self.position = position
        self.value = value


class DuplicateIndex(PermutationError):
    def __init__(self, position: int, value: int):
        super().__init__(f"index {value} repeated at position {position}")
        self.position = position
        self.value = value


class LengthMismatch(RankkitError):
    pass


# --- embedding geometry / selection ---


class DimensionMismatch(RankkitError):
    pass


class ZeroVector(RankkitError):
    def __init__(self, ident: str = ""):
        msg = "zero vector has no direction"
        if ident:
            msg += f" (id={ident!r})"
        super().__init__(msg)
        self.ident = ident


class EmptyCollection(RankkitError):
    pass


class KTooLarge(RankkitError):
    pass


# --- ranking math ---


class NonPositiveTemperature(RankkitError):
    pass


class TooShort(RankkitError):
    pass


# --- prompting / parsing / backends ---


class TooFewDocs(RankkitError):
    pass


class MissingModality(RankkitError):
    pass


class Unparseable(RankkitError):
    pass


class BackendError(RankkitError):
    def __init__(self, message: str, window_index: int | None = None):
        super().__init__(message)
        self.window_index = window_index


class TransportError(BackendError):
    """Retryable transport-level failure (timeouts, 5xx, connection resets)."""


class ScriptExhausted(BackendError):
    """A scripted mock ran out of canned responses."""


class MissingDoc(RankkitError):
    pass


# --- file I/O ---


class MalformedLine(RankkitError):
    def __init__(self, path: str, lineno: int, content: str, reason: str):
        super().__init__(f"{path}:{lineno}: {reason}: {content!r}")
        self.path = path
        self.lineno = lineno
        self.content = content


class InvariantViolation(RankkitError):
    pass


class ConfigError(RankkitError):
    pass
