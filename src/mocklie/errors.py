"""Exception types shared across the package."""


class MockLieError(ValueError):
    """Base class for all errors raised by this package."""


class FieldError(MockLieError):
    """Invalid field construction or impossible field operation."""


class MixedFieldError(MockLieError):
    """Two values from different fields met in one computation."""


class ShapeError(MockLieError):
    """Dimension or shape mismatch between operands."""


class PreconditionError(MockLieError):
    """A checked precondition of a construction failed.

    ``failures`` holds (name, detail) pairs naming each failing precondition;
    detail is a CheckReport where one exists, otherwise a string.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


def require(message, named_reports):
    """Raise ``PreconditionError`` unless every report passed.

    ``named_reports`` yields (name, report) pairs; ``{names}`` in ``message``
    becomes the names of the failing reports, comma-separated, in order.
    """
    failures = [(name, report) for name, report in named_reports if not report.passed]
    if failures:
        names = ", ".join(name for name, _ in failures)
        raise PreconditionError(message.format(names=names), failures)
