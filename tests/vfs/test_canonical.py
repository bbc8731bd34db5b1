"""``MemoryFileSystem.canonical`` is exact: trusting a bound name as spelled
changes no answer.

The store returns a name it already binds as is and normalises only the
rest. Every key was normalised when it was inserted, so that shortcut must
be invisible: each public method, given any spelling, returns or raises
exactly what it does on a store whose ``canonical`` is plain ``_norm``, and
leaves the same tree behind.
"""

import posixpath

import pytest

from repro.vfs.filesystem import MemoryFileSystem, _norm


class NormOnly(MemoryFileSystem):
    """The reference: every name normalised, bound or not."""

    def canonical(self, path):
        return _norm(path)


SPELLINGS = (
    "/d/f", "d/f", "/d//f", "/d/./f", "/d/../d/f", "/d/f/",
    "//d/f",  # POSIX keeps two leading slashes: a different name
    "///d/f", "/.hidden", "/d/.f", "/d/..f", "/d/.", "/d/..", "/..",
    "/", "/d", "/d/", "d//", "", ".", "..",
    "/nope", "d/nope", "/d/../nope", "/d/./new", "/.deltacfs_tmp/x",
)

CALLS = {
    "canonical": lambda fs, p: fs.canonical(p),
    "create": lambda fs, p: fs.create(p),
    "write": lambda fs, p: fs.write(p, 2, b"XY"),
    "read": lambda fs, p: fs.read(p, 1, 3),
    "truncate": lambda fs, p: fs.truncate(p, 2),
    "rename-from": lambda fs, p: fs.rename(p, "/d/moved"),
    "rename-onto": lambda fs, p: fs.rename("/.hidden", p),
    "link-from": lambda fs, p: fs.link(p, "/d/linked"),
    "link-onto": lambda fs, p: fs.link("/d/f", p),
    "unlink": lambda fs, p: fs.unlink(p),
    "close": lambda fs, p: fs.close(p),
    "mkdir": lambda fs, p: fs.mkdir(p),
    "rmdir": lambda fs, p: fs.rmdir(p),
    "exists": lambda fs, p: fs.exists(p),
    "stat": lambda fs, p: fs.stat(p),
    "size": lambda fs, p: fs.size(p),
    "listdir": lambda fs, p: fs.listdir(p),
    "linked_paths": lambda fs, p: fs.linked_paths(p),
    "read_file": lambda fs, p: fs.read_file(p),
    "write_file": lambda fs, p: fs.write_file(p, b"whole"),
    "corrupt": lambda fs, p: fs.corrupt(p, 0),
}


def populated(cls):
    fs = cls()
    fs.mkdir("/d")
    fs.mkdir("/d/empty")
    fs.create("/d/f")
    fs.write("/d/f", 0, b"content")
    fs.link("/d/f", "/d/alias")
    fs.create("/.hidden")
    fs.write("/.hidden", 0, b"dot")
    return fs


def outcome(call, fs, path):
    try:
        return "returned", call(fs, path)
    except Exception as exc:  # the exact error is part of the answer
        return type(exc), str(exc)


def tree(fs):
    files = list(fs.walk_files())
    return (
        files,
        sorted(fs._dirs),
        {p: (fs.read_file(p), fs.linked_paths(p), fs.stat(p)) for p in files},
        fs.used_bytes,
    )


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_spelling_gets_the_reference_answer(name):
    call = CALLS[name]
    for path in SPELLINGS:
        fs, reference = populated(MemoryFileSystem), populated(NormOnly)
        assert outcome(call, fs, path) == outcome(call, reference, path), path
        assert tree(fs) == tree(reference), path


def test_a_bound_name_is_returned_as_the_same_object():
    fs = populated(MemoryFileSystem)
    for path in ("/d/f", "/d/alias", "/.hidden", "/d", "/"):
        assert fs.canonical(path) is path


@pytest.mark.parametrize("path", SPELLINGS)
def test_norm_is_normpath_and_keeps_a_canonical_object(path):
    expected = posixpath.normpath(path if path.startswith("/") else "/" + path)
    assert _norm(path) == expected
    if path == expected:
        assert _norm(path) is path
