"""The one way rfhlab writes and reads text files.

Every writer takes a path, an open text handle or None; every reader a path
or an open text handle.  Large outputs (path CSVs, loop snapshots) go
through ``write_chunks`` as a lazy sequence of pieces, so that the whole
text is never built when it is written out.  JSON input is parsed by
``read_json`` and its fields read by ``read_record`` with strict converters.
"""

import json
import math

import numpy as np


def write_chunks(file, chunks) -> str | None:
    """Write the strings of the iterable ``chunks``, in order, to ``file``.

    ``file`` is a path (opened and closed here), an open text handle, or
    None (nothing is written).  A chunk is written as soon as the iterable
    yields it, so a lazy iterable keeps one chunk in memory at a time.
    Returns the joined text when ``file`` is None, else None.
    """
    if file is None:
        return "".join(chunks)
    if isinstance(file, (str, bytes)):
        with open(file, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
    else:
        for chunk in chunks:
            file.write(chunk)
    return None


def write_text(file, text: str) -> str:
    """Write ``text`` to ``file`` under the rules of ``write_chunks`` and
    return it."""
    write_chunks(file, (text,))
    return text


def write_json(file, payload) -> str:
    """Write ``payload`` as sorted-key JSON, indented by 2 and ending in a
    newline, to ``file`` under the rules of ``write_text``; return the text."""
    return write_text(file, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_with(file, read):
    """``read(handle)`` for a path (opened and closed here) or a handle."""
    if isinstance(file, (str, bytes)):
        with open(file) as fh:
            return read(fh)
    return read(file)


def read_text(file) -> str:
    """The whole text of ``file`` under the rules of ``read_with``."""
    return read_with(file, lambda fh: fh.read())


def read_csv_floats(file) -> np.ndarray:
    """The 2-d float array of a CSV file's rows below its header line (``read_with``)."""
    return read_with(file, lambda fh: np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2))


def read_json(source):
    """The JSON value in ``source``: JSON text (an object or an array), a
    path, or an open text handle.  Nesting past the parser's depth raises
    ValueError."""
    is_text = isinstance(source, str) and source.lstrip().startswith(("{", "["))
    try:
        return json.loads(source if is_text else read_text(source))
    except RecursionError:
        raise ValueError("JSON input nested too deeply to parse") from None


def read_record(payload, kind: str, fields: dict) -> dict:
    """The ``fields`` (name -> converter) of the JSON object ``payload``, each
    converted.  Raises ValueError naming ``kind`` and the field if ``payload``
    is no object, a field is missing, or a converter refuses its value."""
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(payload).__name__}")
    record = {}
    for name, convert in fields.items():
        if name not in payload:
            raise ValueError(f"{kind} has no field {name!r}")
        try:
            record[name] = convert(payload[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} field {name!r} {exc}") from None
    return record


def _converter(what: str, takes, cast):
    """A converter: ``cast(value)`` if ``takes(value)``, else TypeError saying ``what``."""
    def convert(value):
        if not takes(value):
            raise TypeError(f"must be {what}, got {value!r:.40}")
        return cast(value)
    return convert


# strict: type(True) is bool, so no bool passes for an integer or a number
integer = _converter("an integer", lambda v: type(v) is int, int)
number = _converter("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v),
                    float)
string = _converter("a string", lambda v: type(v) is str, str)


def number_array(value) -> np.ndarray:
    """A JSON number or nested array of finite numbers, as a float array."""
    array = np.array(value)
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise TypeError(f"must hold finite numbers alone, got {value!r:.40}")
    return array.astype(float, copy=False)
