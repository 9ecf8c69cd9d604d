"""Exception types; the one rule for what a setting may hold,
check_setting, which check_fields applies to every field of a config
dataclass; and the helpers that open every file the package uses:
open_input, write_atomic, and write_text for each UTF-8 text artefact.

The CLI maps InputError to exit code 2 and DataMismatchError to exit
code 3; everything else is a programming error and propagates.
"""

import dataclasses
import functools
import numbers
import os
from contextlib import contextmanager
from typing import get_args, get_origin, get_type_hints


class InputError(Exception):
    """Bad user input: unreadable/missing files, invalid configuration."""


class ParseError(InputError):
    """Malformed serialized data; message names the offending record."""


class DataMismatchError(Exception):
    """Inconsistent data: dimension mismatches, misaligned utterance ids."""


# Per setting type: the values it accepts, and how a message names them.
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          bool: (bool, "true or false"), str: (str, "a string")}


def check_setting(value, kind, name: str):
    """``value`` as a setting of type ``kind``, stored plainly: an int,
    float, bool or str (from a numpy scalar too), a tuple (from a list or
    a tuple) of such settings, or else an instance of the class ``kind``.
    InputError naming ``name`` otherwise: a bool is not a number, nor is
    a string that spells one."""
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{name} must be a list, got {value!r}")
        if ... not in kinds and len(value) != len(kinds):
            raise InputError(f"{name} must hold {len(kinds)} values, got {value!r}")
        return tuple(check_setting(x, kinds[0], name) for x in value)
    accepted, text = _KINDS.get(kind, (kind, f"an instance of {kind.__name__}"))
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise InputError(f"{name} must be {text}, got {value!r}")
    if kind not in _KINDS:
        return value
    try:
        value = kind(value)
    except OverflowError:
        raise InputError(f"{name} is out of range: {value!r}")
    # Integer settings are counts, sizes and seeds: 2**32 bounds each far
    # beyond any run, and every count and size fits the u32 fields of the
    # .sed layout.
    if kind is int and not -2**32 < value < 2**32:
        raise InputError(f"{name} is out of range: {value!r}")
    return value


@functools.cache
def typed_fields(cls) -> tuple:
    """(field, type hint) of each field of the dataclass ``cls``, resolved
    once per class: get_type_hints evaluates every annotation anew, which
    costs more than the rest of a config's construction."""
    hints = get_type_hints(cls)
    return tuple((field, hints[field.name]) for field in dataclasses.fields(cls))


def check_fields(config) -> None:
    """Each field of the frozen dataclass ``config`` replaced by
    check_setting of its value, as its type hint says, named by the field."""
    for field, kind in typed_fields(type(config)):
        object.__setattr__(config, field.name, check_setting(
            getattr(config, field.name), kind, field.name))


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


def write_text(path, text: str) -> None:
    """``text`` written to ``path`` as UTF-8 by write_atomic."""
    with write_atomic(path, "w", encoding="utf-8") as fh:
        fh.write(text)
