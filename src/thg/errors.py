"""Error kinds shared across the library.

Four failure kinds cover every operation: bad arguments (invalid-input),
unknown catalog targets (not-found), requests outside the supported shapes
(unsupported), and requests past a model's truncation degree
(insufficient-data).  Model files get their own subclass carrying the
offending field path, and a failed internal self-check (two derivations
of one quantity that disagree) gets its own kind as well.
"""


class ThgError(Exception):
    """Base class for all library errors."""


class InvalidInputError(ThgError):
    pass


class NotFoundError(ThgError):
    pass


class UnsupportedError(ThgError):
    pass


class InsufficientDataError(ThgError):
    pass


class ModelError(InvalidInputError):
    """A model document failed to parse or validate.

    path locates the offending field, e.g. "gottlieb.3.generators".
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class BookkeepingError(ThgError):
    """Two derivations of one quantity disagree: a library fault."""
