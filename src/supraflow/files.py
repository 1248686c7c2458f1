"""Every file the package writes or reads goes through here.

A file is written under a temp name in the target's directory that is unique
to the writing process and thread, then renamed over the target, so readers
and concurrent writers only ever see a complete file.  A writer that fails
removes its temp file and leaves whatever was at the path before untouched.
A file is read strictly: an input that breaks a reader's rules is a
ValidationError naming the file, and for a CSV field its line.
"""

from __future__ import annotations

import array
import contextlib
import csv
import json
import os
import sys
import threading
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text handle whose contents replace ``path`` once the block ends."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    handle = open(tmp, "x", newline="")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header: Sequence, rows: Iterable[Sequence]):
    """A header row plus ``rows``, in the csv module's default dialect: commas,
    a field quoted only when it needs it, CRLF line ends.  Every CSV the
    package writes comes through here.  Rows hold Python values, such as
    ``.tolist()`` rows: a Python float is written as its shortest repr, which
    reads back to the same bits, while a numpy scalar such as ``np.float32``
    does not."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload):
    """``payload`` as compact one-line JSON with sorted keys and a final
    newline: the form the json module's C encoder writes."""
    text = json.dumps(payload, sort_keys=True)
    with atomic_write(path) as handle:
        handle.write(text + "\n")


def _not_a_number(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, what: str):
    """The JSON document at ``path``.  One that is not JSON, or that holds the
    ``NaN`` or ``Infinity`` literals the json module accepts, is a
    ValidationError naming ``what`` and ``path``."""
    with open(path) as handle:
        try:
            return json.load(handle, parse_constant=_not_a_number)
        except ValueError as exc:
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None


def read_csv(path, what: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header row of the CSV file at ``path`` (``[]`` if it has none) and an
    iterator over its other rows, each as ``(line, fields)``.  The file is read in
    the dialect ``write_csv`` writes; blank rows are skipped."""
    rows = _csv_rows(path, what)
    return next(rows, (0, []))[1], rows


def _csv_rows(path, what: str):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"{what} {path} is not readable CSV: {exc}") from None


def csv_floats(path, rows, width: int, labelled=False) -> tuple[Sequence[int], list, np.ndarray]:
    """The ``read_csv`` rows of ``path`` as each row's line number, its label (field
    0, if ``labelled``; interned, as a label recurs on many rows) and its other
    fields parsed by ``float``, as one array with a row per CSV row.  A row without
    ``width`` fields, or a field that is not a finite number, is a ValidationError
    naming ``path:line``."""
    start = 1 if labelled else 0
    lines, labels, values = array.array("q"), [], array.array("d")
    for line, row in rows:
        if len(row) != width:
            raise ValidationError(f"{path}:{line}: expected {width} fields")
        try:
            values.extend(map(float, row[start:]))
        except ValueError:
            raise ValidationError(f"{path}:{line}: non-numeric field in {row!r}") from None
        lines.append(line)
        if labelled:
            labels.append(sys.intern(row[0]))
    block = np.frombuffer(values).reshape(len(lines), width - start)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        raise ValidationError(f"{path}:{lines[k]}: non-finite field in {block[k].tolist()!r}")
    return lines, labels, block
