"""The native kernel loader: one compile, shared by concurrent importers."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro.native


def test_concurrent_first_import_compiles_once(tmp_path):
    """Four processes import repro.native against an empty build cache at once.

    A ``gcc`` shim on ``PATH`` logs each compiler run; all four must load the
    same library file and the shim must have run exactly once.
    """
    pkg = tmp_path / "repro"
    shutil.copytree(
        Path(repro.native.__file__).parent,
        pkg / "native",
        ignore=shutil.ignore_patterns("_build", "__pycache__"),
    )
    (pkg / "__init__.py").write_text("")
    log = tmp_path / "gcc.log"
    shim = tmp_path / "bin" / "gcc"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "{shutil.which("gcc")}" "$@"\n')
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        PATH=f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
    )
    code = (
        "import os, repro.native as n; "
        "assert n.lib.lz_decompress(b'\\x00', 1, n.ffi.NULL, 0) == 0; "
        "print(n.LIBRARY_PATH, os.stat(n.LIBRARY_PATH).st_ino)"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (_, err) in zip(procs, outs):
        assert p.returncode == 0, err
    loaded = {out.strip() for out, _ in outs}
    assert len(loaded) == 1, loaded
    assert loaded.pop().startswith(str(pkg / "native" / "_build" / "kernels-"))
    assert log.read_text().splitlines() == ["run"]
    built = sorted(p.name for p in (pkg / "native" / "_build").iterdir())
    assert len(built) == 2 and built[0] == ".lock" and built[1].endswith(".so"), built
