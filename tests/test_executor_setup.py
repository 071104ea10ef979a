"""The executor set-up keeps zip importers from re-reading their archives."""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.core.harness import _executor_setup


def _write_zip(path, package: str, value: int) -> str:
    """A zip holding ``package/inner/mod.py`` that sets ``VALUE``."""
    with zipfile.ZipFile(path, "w") as z:
        z.writestr(f"{package}/__init__.py", "")
        z.writestr(f"{package}/inner/__init__.py", "")
        z.writestr(f"{package}/inner/mod.py", f"VALUE = {value}\n")
    return str(path)


@pytest.fixture
def zips(tmp_path, monkeypatch):
    """Two archives, the first on ``sys.path``; everything is undone after.

    Setting ``invalidate_caches`` to its own value makes monkeypatch put
    the original back on teardown, whatever the helper did to it.
    """
    monkeypatch.setattr(
        zipimport.zipimporter, "invalidate_caches", zipimport.zipimporter.invalidate_caches
    )
    first = _write_zip(tmp_path / "first.zip", "zfirst", 1)
    second = _write_zip(tmp_path / "second.zip", "zsecond", 2)
    monkeypatch.syspath_prepend(first)
    yield first, second
    for name in [n for n in sys.modules if n.split(".")[0] in ("zfirst", "zsecond")]:
        del sys.modules[name]
    for key in [k for k in sys.path_importer_cache if k.startswith(str(tmp_path))]:
        del sys.path_importer_cache[key]
    for archive in (first, second):
        zipimport._zip_directory_cache.pop(archive, None)


@pytest.fixture
def reads(monkeypatch):
    """Counts calls of ``zipimport._read_directory``, which parses an
    archive's central directory."""
    calls = []
    real = zipimport._read_directory

    def counting(archive):
        calls.append(archive)
        return real(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return calls


def test_invalidate_caches_stops_rereading_archives(zips, reads):
    first, _ = zips
    assert importlib.import_module("zfirst.inner.mod").VALUE == 1
    reads.clear()
    importlib.invalidate_caches()
    if sys.version_info < (3, 13):  # 3.13 drops the cache entry instead
        assert first in reads, "the zip importer no longer re-reads eagerly"
    _executor_setup()
    reads.clear()
    importlib.invalidate_caches()
    assert reads == []


def test_modules_still_import(zips, reads):
    _executor_setup()
    importlib.invalidate_caches()
    assert importlib.import_module("zfirst.inner.mod").VALUE == 1


def test_archive_added_later_is_read(zips, reads, monkeypatch):
    _, second = zips
    _executor_setup()
    importlib.invalidate_caches()
    monkeypatch.syspath_prepend(second)
    assert importlib.import_module("zsecond.inner.mod").VALUE == 2
    assert second in reads


def test_idempotent(zips, reads):
    _executor_setup()
    patched = zipimport.zipimporter.invalidate_caches
    _executor_setup()
    assert zipimport.zipimporter.invalidate_caches is patched
    importlib.invalidate_caches()
    assert reads == []
    assert importlib.import_module("zfirst.inner.mod").VALUE == 1
