"""Shared artifact file I/O: atomic replacement and a streamed JSON writer.

The ``.prov.json``, ``.tsdb.json`` and ``.fp.json`` saves write through
:func:`atomic_write`: the document goes to a new sibling of the target
and is renamed onto it only once complete.  A save that fails or is interrupted part way leaves
an earlier file at the target untouched and no partial file behind.
Nothing is synced to disk, so the guarantee covers a failed, interrupted
or killed process, not a power loss.

:func:`write_json` writes a document exactly as ``json.dumps(doc,
indent=1)`` would, but holds one member at a time: a :class:`JsonObject`
or :class:`JsonArray` is written entry by entry from an iterable, and
any other value is encoded on its own.  JSON strings never contain a raw
newline, so a value's text at nesting depth ``d`` is its standalone
``json.dumps(value, indent=1)`` with ``d`` spaces after every newline.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from collections.abc import Iterable, Iterator
from typing import IO

__all__ = ["JsonArray", "JsonObject", "atomic_write", "write_json"]


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike[str]) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` when the ``with`` block ends.

    The file is a new sibling of ``path`` (of the file a symlink at
    ``path`` points to), created like ``open(path, "w")`` would create
    it.  On success it is renamed onto that file; on any exception,
    interrupts included, it is removed and ``path`` is left as it was.
    A ``path`` that exists but is not a regular file, such as
    ``/dev/null`` or a pipe, cannot be replaced and is written in place.
    """
    target = pathlib.Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with open(target, "w", encoding="utf-8") as out:
            yield out
        return
    tmp, fd = _new_sibling(target)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _new_sibling(target: pathlib.Path) -> tuple[pathlib.Path, int]:
    """Create a hidden file beside ``target``, with the mode a new file
    ``open`` creates gets (0666 less the umask); returns it and its fd."""
    n = 0
    while True:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.{n}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            n += 1


class JsonObject:
    """A JSON object written member by member from ``(key, value)`` pairs.

    Keys are strings; values may themselves be streamed containers.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[tuple[str, object]]) -> None:
        self.members = members


class JsonArray:
    """A JSON array written item by item; items may be streamed containers."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[object]) -> None:
        self.items = items


def write_json(
    out: IO[str], value: object, *, allow_nan: bool = True, depth: int = 0
) -> None:
    """Write ``value`` as ``json.dumps(value, indent=1, allow_nan=allow_nan)``
    writes it at nesting ``depth``.

    A :class:`JsonObject` or :class:`JsonArray` is consumed one entry at
    a time; an empty one is written as ``{}`` or ``[]``, as ``json``
    does.  Raises what ``json.dumps`` raises, after writing the entries
    before the failing one.
    """
    if isinstance(value, JsonObject):
        entries = ((f"{json.dumps(key)}: ", item) for key, item in value.members)
        brackets = "{}"
    elif isinstance(value, JsonArray):
        entries = (("", item) for item in value.items)
        brackets = "[]"
    else:
        text = json.dumps(value, indent=1, allow_nan=allow_nan)
        out.write(text.replace("\n", "\n" + " " * depth) if depth else text)
        return
    indent = "\n" + " " * (depth + 1)
    sep = brackets[0]
    for prefix, item in entries:
        out.write(sep + indent + prefix)
        write_json(out, item, allow_nan=allow_nan, depth=depth + 1)
        sep = ","
    out.write(brackets if sep == brackets[0] else "\n" + " " * depth + brackets[1])
