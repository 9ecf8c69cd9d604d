"""Exception types, and the two helpers that open every file the package uses.

The CLI maps InputError to exit code 2 and DataMismatchError to exit
code 3; everything else is a programming error and propagates.
"""

import os
from contextlib import contextmanager


class InputError(Exception):
    """Bad user input: unreadable/missing files, invalid configuration."""


class ParseError(InputError):
    """Malformed serialized data; message names the offending record."""


class DataMismatchError(Exception):
    """Inconsistent data: dimension mismatches, misaligned utterance ids."""


def open_input(path, mode="rb", **kw):
    """``open(path, mode, **kw)``; any OSError becomes an InputError
    naming the path and the reason."""
    try:
        return open(path, mode, **kw)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")


@contextmanager
def write_atomic(path, mode="wb", **kw):
    """A handle on ``<path>.tmp``, renamed over ``path`` when the block
    ends without error. On any failure the temporary file is removed,
    and an OSError becomes an InputError naming the path and the reason."""
    tmp = os.fspath(path) + ".tmp"
    try:
        fh = open(tmp, mode, **kw)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}")
