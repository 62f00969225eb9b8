"""The one way rfhlab writes and reads text files."""


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


def read_text(file) -> str:
    """The whole text of ``file``: a path (opened and closed here) or an
    open text handle."""
    if isinstance(file, (str, bytes)):
        with open(file) as fh:
            return fh.read()
    return file.read()
