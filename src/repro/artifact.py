"""Shared artifact file I/O: one reader, one envelope check, one writer.

Every JSON artifact the package reads goes through :func:`read_json`,
which turns any failure to read, decode (UTF-8) or parse the file into
the caller's typed error naming the file; the versioned formats then
check their ``format``/``version`` envelope with :func:`check_header`.
The provenance loader parses its file one member at a time and turns
the same failures into its error through :func:`reading`.
JSON has no NaN or Inf: :func:`nan_to_null` writes them as ``null`` and
:func:`null_to_nan` reads ``null`` back as NaN.

Every artifact and report the package writes goes through
:func:`atomic_write`: the document goes to a new sibling of the target
and is renamed onto it only once complete.  A save that fails or is
interrupted part way leaves an earlier file at the target untouched and
no partial file behind.  Nothing is synced to disk, so the guarantee
covers a failed, interrupted or killed process, not a power loss.
:func:`save_text` and :func:`save_json` are its one-document forms.
Three writers stay outside it: the streamed JSONL trace, whose partial
file must stay readable; the metrics CSV, which the ``csv`` module
writes with ``newline=""``; and the binary ``.npz`` workload traces.

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
import math
import os
import pathlib
import sys
from collections.abc import Iterable, Iterator
from typing import IO

__all__ = [
    "JsonArray",
    "JsonObject",
    "atomic_write",
    "check_header",
    "nan_to_null",
    "null_to_nan",
    "read_json",
    "reading",
    "save_json",
    "save_text",
    "write_json",
]


@contextlib.contextmanager
def reading(
    path: str | os.PathLike[str], error: type[Exception], what: str
) -> Iterator[None]:
    """Raise ``error``, with a message naming ``what`` and ``path``, for
    a failure inside the block to read the file, decode it as UTF-8 or
    parse it as JSON."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(
    path: str | os.PathLike[str], error: type[Exception], what: str
) -> object:
    """The JSON document in the file at ``path``.

    A file that cannot be read, is not UTF-8 or is not JSON raises
    ``error`` with a message naming ``what`` and ``path``.
    """
    with reading(path, error, what), open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_header(
    raw: object, fmt: str, version: int, error: type[Exception]
) -> dict:
    """``raw`` once it is a JSON object tagged ``format: fmt`` at ``version``;
    raises ``error`` otherwise."""
    if not isinstance(raw, dict):
        raise error(f"not a {fmt} artifact (a {type(raw).__name__}, not a JSON object)")
    if raw.get("format") != fmt:
        raise error(f"not a {fmt} artifact (format={raw.get('format')!r})")
    if raw.get("version") != version:
        raise error(
            f"unsupported {fmt} version {raw.get('version')!r} "
            f"(this build reads version {version})"
        )
    return raw


def nan_to_null(value: object) -> object:
    """``value`` with every non-finite float inside it replaced by ``None``
    (lists, tuples and dicts are copied, tuples as lists)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: nan_to_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [nan_to_null(item) for item in value]
    return value


def null_to_nan(value: object) -> object:
    """The inverse of :func:`nan_to_null`: every ``None`` inside ``value``
    reads as NaN (lists and dicts are copied)."""
    if value is None:
        return math.nan
    if isinstance(value, dict):
        return {key: null_to_nan(item) for key, item in value.items()}
    if isinstance(value, list):
        return [null_to_nan(item) for item in value]
    return value


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike[str]) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` when the ``with`` block ends.

    The file is a new sibling of ``path`` (of the file a symlink at
    ``path`` points to), created like ``open(path, "w")`` would create
    it.  On success it is renamed onto that file; on any exception,
    interrupts included, it is removed and ``path`` is left as it was.
    A ``path`` that is the file standard output writes to, such as
    ``/dev/stdout``, is written through ``sys.stdout``, after what the
    process printed before and, on an appending redirect, after what
    the file held.  Any other ``path`` that exists but is not a regular
    file, such as ``/dev/null`` or a pipe, cannot be replaced and is
    written in place.
    """
    if _is_stdout(path):
        yield sys.stdout
        sys.stdout.flush()
        return
    # Judged on the path as given: ``/dev/fd/N`` on a pipe resolves to
    # a ``pipe:[...]`` name that has no directory to write beside.
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    target = pathlib.Path(os.path.realpath(path))
    tmp, fd = _new_sibling(target)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_text(path: str | os.PathLike[str], text: str) -> None:
    """Replace ``path`` with ``text`` through :func:`atomic_write`."""
    with atomic_write(path) as out:
        out.write(text)


def save_json(
    path: str | os.PathLike[str], document: object, *, allow_nan: bool = True
) -> None:
    """Replace ``path`` with ``json.dumps(document, indent=1) + "\\n"``."""
    save_text(path, json.dumps(document, indent=1, allow_nan=allow_nan) + "\n")


def _is_stdout(path: str | os.PathLike[str]) -> bool:
    """Whether ``path`` is the file (same device and inode) that
    ``sys.stdout``'s descriptor writes to."""
    try:
        target = os.stat(path)
        stdout = os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        return False  # no such file, or no stdout descriptor (captured)
    return (target.st_dev, target.st_ino) == (stdout.st_dev, stdout.st_ino)


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
