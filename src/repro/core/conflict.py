"""Conflict-copy naming and bookkeeping (paper Section III-C).

First-write-wins: the first update the server receives becomes the latest
version; the loser is preserved as a *conflict version* under a derived
name, reconstructed from the base snapshot plus the losing incremental
data — "a file becoming a conflict version does not mean we have to drop
the incremental data and transmit this file again."
"""

from __future__ import annotations

import posixpath
import re

from repro.common.version import VersionStamp

_CONFLICT_NAME = re.compile(r" \(conflicted copy c\d+-\d+\)(\.[^./]*)?$")


def conflict_path(path: str, losing_version: VersionStamp) -> str:
    """Derived name for a conflict copy, unique per losing version.

    ``/docs/report.txt`` lost by client 7's 42nd version becomes
    ``/docs/report (conflicted copy c7-42).txt`` — the familiar
    Dropbox-style convention. The tag goes before the *final* extension
    only (``archive.tar.gz`` -> ``archive.tar (conflicted copy ...).gz``),
    and a dotfile like ``.gitignore`` keeps its leading dot as part of the
    stem rather than producing a name that starts with a space.
    """
    directory, name = posixpath.split(path)
    stem, ext = posixpath.splitext(name)
    tag = f" (conflicted copy c{losing_version.client_id}-{losing_version.counter})"
    return posixpath.join(directory, f"{stem}{tag}{ext}")


def is_conflict_copy(path: str) -> bool:
    """True when ``path`` carries the tag :func:`conflict_path` derives.

    Matches the whole ``" (conflicted copy c<id>-<n>)"`` tag directly
    before the final extension, so a user file that merely has the words
    in its name (``my conflicted copy notes.txt``) is an ordinary file.
    """
    return _CONFLICT_NAME.search(path) is not None
