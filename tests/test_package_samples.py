"""The package docstring's samples run, in order, in one namespace.

``repro.__doc__`` is the package's runnable tour: each literal block (a
paragraph ending ``::``) may use what an earlier block defined, as a
reader pasting them into one session would.  The blocks run in a fresh
process, because one registers a system in the process-wide registry,
with the working directory in a scratch folder, because two write
files.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent.parent

_RUN_BLOCKS = """
import json, sys
namespace = {}
for index, block in enumerate(json.load(sys.stdin), 1):
    try:
        exec(compile(block, f"<block {index}>", "exec"), namespace)
    except Exception as exc:
        sys.exit(f"block {index} raised {type(exc).__name__}: {exc}")
"""


def _literal_blocks(doc: str) -> list[str]:
    """Each indented block that follows a line ending in ``::``."""
    lines = doc.splitlines()
    blocks = []
    for index, line in enumerate(lines):
        if not line.rstrip().endswith("::"):
            continue
        margin = len(line) - len(line.lstrip())
        body = []
        for follow in lines[index + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= margin:
                break
            body.append(follow)
        blocks.append(textwrap.dedent("\n".join(body)).strip("\n"))
    return blocks


def test_literal_blocks_are_found():
    doc = "Intro::\n\n    a = 1\n\n    b = a\n\nText.  More::\n\n  c = b\nEnd.\n"
    assert _literal_blocks(doc) == ["a = 1\n\nb = a", "c = b"]


def test_package_docstring_samples_run_in_order(tmp_path):
    blocks = _literal_blocks(repro.__doc__)
    assert len(blocks) == 10
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_BLOCKS], input=json.dumps(blocks),
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
