"""Exception types shared across the package."""

import contextlib


class ValidationError(ValueError):
    """An input violates a structural precondition (shape, sign, schema)."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite or otherwise untrustworthy values."""


@contextlib.contextmanager
def malformed(what: str):
    """Report a missing field or a bad value in the input ``what`` as a ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{what} is missing the field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is malformed: {exc}") from None


def read_field(data: dict, key: str, cast, what: str):
    """``cast(data[key])``, reporting a value that ``cast`` rejects, with a
    ValidationError too, as a ValidationError that names ``key`` in ``what``."""
    value = data[key]
    try:
        return cast(value)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{what} field {key!r} is malformed: {exc}") from None
