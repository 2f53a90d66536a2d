"""Artifact files are created anew on every write, parents included."""

import os

from nettwin.fileio import open_fresh


def write(path, text):
    with open_fresh(path) as fh:
        fh.write(text)


def test_new_path(tmp_path):
    write(tmp_path / "a.json", "one\n")
    assert (tmp_path / "a.json").read_text() == "one\n"


def test_existing_file_is_replaced_not_truncated(tmp_path):
    path, other = tmp_path / "a.json", tmp_path / "link.json"
    write(path, "old\n")
    os.link(path, other)  # a second name for the old file keeps its bytes
    write(path, "new\n")
    assert path.read_text() == "new\n"
    assert other.read_text() == "old\n"
    assert not os.path.samefile(path, other)


def test_symlink_is_written_through(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    write(target, "old\n")
    link.symlink_to(target)
    write(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_missing_parent_directories_created(tmp_path):
    write(tmp_path / "a" / "b" / "c.json", "one\n")
    assert (tmp_path / "a" / "b" / "c.json").read_text() == "one\n"
