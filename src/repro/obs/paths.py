"""Derived artifact-path helpers shared by the CLI subcommands.

Every observability surface writes sibling files next to a user-given
output path (``out.tsdb.json`` → ``out.rfh.tsdb.json`` per policy,
``out.fp.json`` → ``out.rfh.fp.json``, ...).  The suffix logic lives
here once: compound artifact suffixes are recognized as a unit so a tag
never lands *inside* ``.tsdb.json``.
"""

from __future__ import annotations

import pathlib

__all__ = ["ARTIFACT_SUFFIXES", "split_suffix", "tagged_path"]

#: Compound suffixes recognized as a unit, most specific first.
ARTIFACT_SUFFIXES: tuple[str, ...] = (
    ".prov.json",
    ".tsdb.json",
    ".fp.json",
    ".jsonl",
    ".json",
)


def split_suffix(path: str | pathlib.Path) -> tuple[str, str]:
    """Split ``path`` into (stem, artifact suffix).

    The suffix is the longest matching entry of
    :data:`ARTIFACT_SUFFIXES` (empty when none matches); the stem keeps
    any directory part.  A bare suffix-named file like ``.json`` is
    left whole rather than split to an empty stem.
    """
    text = str(path)
    name = pathlib.PurePath(text).name
    for suffix in ARTIFACT_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return text[: -len(suffix)], suffix
    return text, ""


def tagged_path(path: str | pathlib.Path, tag: str) -> str:
    """Insert ``.tag`` before the artifact suffix.

    ``out.tsdb.json`` + ``rfh`` → ``out.rfh.tsdb.json``; a path with no
    recognized suffix gets ``.tag`` appended.
    """
    stem, suffix = split_suffix(path)
    return f"{stem}.{tag}{suffix}"

