"""Atomic output files: every file the package writes goes through here.

A file is written under a temp name in the target's directory that is unique
to the writing process and thread, then renamed over the target, so readers
and concurrent writers only ever see a complete file.  A writer that fails
removes its temp file and leaves whatever was at the path before untouched.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import threading
from typing import Iterable, Sequence


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
