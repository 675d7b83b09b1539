"""The encoding of every JSON and CSV artifact except dataset.csv.

Reruns are byte-identical because every writer goes through here: UTF-8,
LF line ends and a final newline; JSON with sorted keys; CSV rows whose
floats are written as repr(float(v)) and whose missing values are NA.
Every artifact file, dataset.csv included, is opened with create, which
replaces an existing file with a new one rather than truncating it, and
the large ones format each distinct value once with format_values.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError


def create(path, binary: bool = False):
    """path opened for writing as a new file, as UTF-8 text with no newline
    translation or, if binary, as bytes. An existing file is removed first:
    truncating a file whose last write is still cached makes ext4 flush that
    write, and the next truncation of the file waits for the disk, 30 to
    60 ms on a virtual disk. Every stage rewrites manifest.json."""
    path = Path(path)
    path.unlink(missing_ok=True)
    if binary:
        return path.open("wb")
    return path.open("w", newline="", encoding="utf-8")


def encode_json(doc, indent: int | None = None) -> str:
    """doc as JSON text with sorted keys, indented by `indent` spaces or on
    one line when indent is None."""
    return json.dumps(doc, sort_keys=True, indent=indent)


def write_text(path, text: str) -> None:
    with create(path) as fh:
        fh.write(text)


def write_json(path, doc, indent: int | None = None) -> None:
    """encode_json(doc, indent) and a newline."""
    write_text(path, encode_json(doc, indent) + "\n")


def read_json(path, what: str, parse=None):
    """The JSON document in path, or parse(document). A file that cannot be
    read or is not UTF-8 JSON, or whose document parse fails on with a
    KeyError, ValueError, TypeError, OverflowError (an int past int64, say)
    or InvalidInputError, raises InvalidInputError naming `what` and the
    path; so does a document nested too deep for json to recurse through
    (RecursionError). The tree loader does not recurse; json does."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, say
        raise InvalidInputError(f"{what} {path} cannot be read ({exc.strerror or exc})") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise InvalidInputError(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return doc if parse is None else parse(doc)
    except (KeyError, ValueError, TypeError, OverflowError, InvalidInputError,
            RecursionError) as exc:
        raise InvalidInputError(
            f"{what} {path} is malformed ({type(exc).__name__}: {exc})") from None


def write_table(path, header, rows) -> None:
    """A header line, then one comma-separated line per row. A float is
    written as repr(float(v)), since numpy 2's repr(np.float64(v)) is
    "np.float64(v)", and None as NA."""
    with create(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(["NA" if v is None else repr(float(v)) if isinstance(v, float) else v
                     for v in row] for row in rows)


def format_values(values: np.ndarray, fmt) -> np.ndarray:
    """fmt(v) for every v of an array, as an object array of its shape. fmt
    runs once per distinct value, and once per bit pattern for float64, so
    -0.0 keeps its sign."""
    floats = values.dtype == np.float64
    keys, where = np.unique(values.view(np.int64) if floats else values, return_inverse=True)
    if floats:
        keys = keys.view(np.float64)
    text = np.array(list(map(fmt, keys.tolist())), dtype=object)
    return text[where.reshape(values.shape)]


def write_boxes_geojson(path, head: dict, boxes, properties: dict) -> None:
    """The bytes write_json(path, doc) writes for the GeoJSON document

        {"type": "FeatureCollection", "properties": head, "features": [
            {"type": "Feature",
             "geometry": {"type": "Polygon", "coordinates":
                          [[[w, s], [e, s], [e, n], [w, n], [w, s]]]},
             "properties": {name: values[k] for name, values in properties}},
            ...]}

    with one feature per box k, where boxes is the four 1-d arrays
    (s, w, n, e) and properties maps names to 1-d arrays of box values.
    No document is built: each distinct coordinate and property value is
    encoded once, and each feature is joined from a fixed template that
    holds the keys in sorted order, as json.dumps(sort_keys=True) writes
    them. head is encoded by json.dumps itself.
    """
    names = sorted(properties)
    template = ('{"geometry": {"coordinates": [[[%s, %s], [%s, %s], [%s, %s], [%s, %s], '
                '[%s, %s]]], "type": "Polygon"}, "properties": {'
                + ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names)
                + '}, "type": "Feature"}')
    s, w, n, e = (format_values(np.asarray(b), json.dumps).tolist() for b in boxes)
    props = [format_values(np.asarray(properties[name]), json.dumps).tolist() for name in names]
    with create(path) as fh:
        fh.write('{"features": [')
        fh.write(", ".join(template % row for row in zip(w, s, e, s, e, n, w, n, w, s, *props)))
        fh.write('], "properties": ' + json.dumps(head, sort_keys=True)
                 + ', "type": "FeatureCollection"}\n')
