"""Error types: bad input data, and arguments that cannot be used."""


class DataError(Exception):
    """Base class for problems with input data (parse, schema, validation)."""


class ParseError(DataError):
    """Structurally malformed CSV, e.g. a ragged row."""


class SchemaError(DataError):
    """Unusable header or empty input."""


class ValidationError(DataError):
    """Well-formed input containing unacceptable cell values."""


class UsageError(ValueError):
    """An argument or flag value that cannot be used, whatever the data.

    The CLI exits 2 for it and 1 for every other error it reports.
    """
