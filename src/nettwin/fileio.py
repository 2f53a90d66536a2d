"""Artifact writing: every file is created anew, never truncated in place."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import TextIO


def open_fresh(path: str | Path) -> TextIO:
    """Open ``path`` for writing UTF-8 text as a new file.

    An existing regular file is unlinked first rather than truncated: on a
    journaling file system, truncating a file that holds data can wait for
    a journal commit (about 60 ms on ext4 with ``data=ordered``), while
    creating a file does not. The bytes written are the same either way;
    the new file takes its permissions from the umask. A symlink is kept
    and written through, as plain ``open(path, "w")`` would. Missing parent
    directories are created here, so a command that fails before it writes
    leaves none behind.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8")


def write_json(path: str | Path, payload: dict) -> None:
    """Write payload as a fresh JSON artifact: sorted keys, indent 1, newline."""
    with open_fresh(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
