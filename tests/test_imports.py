"""Importing scpir stays cheap: no module pulls in `dataclasses`, whose
own imports (`inspect`, `ast`, `dis`, `tokenize`) cost every short
`scpir` process several milliseconds and about 1 MiB."""

import os
import subprocess
import sys

import scpir

MODULES = ("audit", "cli", "oracle", "packets", "scheme", "sda", "sfpir")


def test_fresh_import_loads_no_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(scpir.__file__)))
    code = (
        f"import sys\n"
        f"import {', '.join(f'scpir.{name}' for name in MODULES)}\n"
        f"print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
