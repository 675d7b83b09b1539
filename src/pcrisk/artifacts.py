"""The encoding of every JSON and CSV artifact except dataset.csv.

Reruns are byte-identical because every writer goes through here: UTF-8,
LF line ends and a final newline; JSON with sorted keys; CSV rows whose
floats are written as repr(float(v)) and whose missing values are NA.
A writer replaces an existing file with a new one rather than truncating it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import InvalidInputError


def _create(path):
    """path opened for text writing as a new file. An existing file is
    removed first: truncating a file whose last write is still cached makes
    ext4 flush that write, and the next truncation of the file waits for the
    disk, 30 to 60 ms on a virtual disk. Every stage rewrites manifest.json."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path.open("w", newline="", encoding="utf-8")


def write_json(path, doc, indent: int | None = None) -> None:
    """doc as JSON with sorted keys, indented by `indent` spaces or on one
    line when indent is None."""
    with _create(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=indent) + "\n")


def read_json(path, what: str):
    """The JSON document in path. A file that cannot be read or is not
    UTF-8 JSON raises InvalidInputError naming `what` and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, say
        raise InvalidInputError(f"{what} {path} cannot be read ({exc.strerror or exc})") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidInputError(f"{what} {path} is not valid JSON: {exc}") from None


def write_table(path, header, rows) -> None:
    """A header line, then one comma-separated line per row. A float is
    written as repr(float(v)), since numpy 2's repr(np.float64(v)) is
    "np.float64(v)", and None as NA."""
    with _create(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(["NA" if v is None else repr(float(v)) if isinstance(v, float) else v
                     for v in row] for row in rows)
