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


# the characters of a bad line, or of the reason it is bad, that a
# MalformedLine message quotes; a longer one is cut and its length given
_QUOTE_CHARS = 100


class MalformedLine(RankkitError):
    """A bad line of an input file, named by path:line.  The message quotes
    the line, and gives the reason, whole up to ``_QUOTE_CHARS`` characters;
    of a longer one it quotes the first ``_QUOTE_CHARS`` and the length, so a
    huge line makes no huge log record.  ``content`` is the whole line."""

    def __init__(self, path: str, lineno: int, content: str, reason: str):
        quoted = repr(content) if len(content) <= _QUOTE_CHARS else (
            f"{content[:_QUOTE_CHARS]!r}... ({len(content)} characters)")
        if len(reason) > _QUOTE_CHARS:
            reason = f"{reason[:_QUOTE_CHARS]}... ({len(reason)} characters)"
        super().__init__(f"{path}:{lineno}: {reason}: {quoted}")
        self.path = path
        self.lineno = lineno
        self.content = content


class InvariantViolation(RankkitError):
    pass


class ConfigError(RankkitError):
    pass
