"""The one way rfhlab writes and reads text files.

Every writer takes a path, an open text handle or None; every reader a path
or an open text handle.  Large outputs (path CSVs, loop snapshots) go
through ``write_chunks`` as a lazy sequence of pieces, so that the whole
text is never built when it is written out.
"""

import json

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
    path, or an open text handle."""
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        return json.loads(source)
    return json.loads(read_text(source))
