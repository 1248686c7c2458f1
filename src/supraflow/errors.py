"""Exception types shared across the package, and the one reader of JSON documents."""


class ValidationError(ValueError):
    """An input violates a structural precondition (shape, sign, schema)."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite or otherwise untrustworthy values."""


#: The default of a key that a document must give.
REQUIRED = object()


def read_document(data, table: dict, what: str) -> dict:
    """The fields of the JSON object ``data`` by ``table``, which maps each key to
    ``(cast, default)``: ``cast(value)``, or ``default`` where the key is absent or
    null.  A key whose cast is None is retired: accepted and not read.  A missing
    ``REQUIRED`` key, a key not in ``table`` or a value that ``cast`` rejects is a
    ValidationError naming the key in ``what``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    fields = {}
    for key, (cast, default) in table.items():
        value = data.get(key)
        if cast is None:
            continue
        if value is None and default is REQUIRED:
            raise ValidationError(f"{what} is missing the required {key!r} field")
        try:
            fields[key] = default if value is None else cast(value)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{what} field {key!r} is malformed: {exc}") from None
    unknown = ", ".join(repr(key) for key in data if key not in table)
    if unknown:
        raise ValidationError(f"{what} has unknown field(s) {unknown}")
    return fields


def _json_bool(value) -> bool:
    """A JSON ``true`` or ``false``; any other value, ``"false"`` or ``1`` too, is rejected."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected JSON true or false, got {value!r}")
    return value


def _json_int(value) -> int:
    """A JSON integer, or a number with an integral value such as ``5.0``; a
    bool, a string or a non-integral number such as ``5.9`` is rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"expected a JSON integer, got {value!r}")


def _json_str(value) -> str:
    """A JSON string, such as a file path; a number or any other value is rejected."""
    if not isinstance(value, str):
        raise ValidationError(f"expected a JSON string, got {value!r}")
    return value


def _json_list(cast):
    """The cast that reads a JSON list, applying ``cast`` to each item."""
    def read(value) -> list:
        if not isinstance(value, list):
            raise ValidationError(f"expected a JSON list, got {value!r}")
        return [cast(item) for item in value]
    return read
