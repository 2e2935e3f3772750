"""Atomic writes: the temporary file lies in the directory the path names."""

import tempfile

import pytest

from moelab.fileio import atomic_write_text


@pytest.mark.parametrize("path, directory", [
    ("out.txt", "."), ("sub/out.txt", "sub"), ("", "."), (".", "."),
], ids=["bare_name", "in_a_subdirectory", "empty", "dot"])
def test_the_temporary_file_lies_in_the_directory_the_path_names(tmp_path, monkeypatch,
                                                                   path, directory):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    given = []
    mkstemp = tempfile.mkstemp

    def spy(*args, **kwargs):
        given.append(kwargs["dir"])
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", spy)
    if path in ("", "."):  # no file can take either name
        with pytest.raises(OSError):
            atomic_write_text(path, "x")
    else:
        atomic_write_text(path, "x")
        assert (tmp_path / path).read_text() == "x"
    assert given == [directory]
    written = [] if path in ("", ".") else [path]
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == sorted(
        ["sub"] + written)
