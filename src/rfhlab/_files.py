"""The one way rfhlab writes and reads text files."""

import json


def write_text(file, text: str) -> str:
    """Write ``text`` to ``file`` and return it.

    ``file`` is a path (opened and closed here), an open text handle, or
    None (nothing is written).
    """
    if isinstance(file, (str, bytes)):
        with open(file, "w") as fh:
            fh.write(text)
    elif file is not None:
        file.write(text)
    return text


def write_json(file, payload) -> str:
    """Write ``payload`` as sorted-key JSON, indented by 2 and ending in a
    newline, to ``file`` under the rules of ``write_text``; return the text."""
    return write_text(file, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_text(file) -> str:
    """The whole text of ``file``: a path (opened and closed here) or an
    open text handle."""
    if isinstance(file, (str, bytes)):
        with open(file) as fh:
            return fh.read()
    return file.read()


def read_json(source):
    """The JSON value in ``source``: JSON text (an object or an array), a
    path, or an open text handle."""
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        return json.loads(source)
    return json.loads(read_text(source))
