"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares
against: one ``<stem>.out`` per command and the manifest ``commands.json``
with each command's argv and exit code.

    python tests/golden/regenerate.py

Regenerate only for a change meant to move the outputs, and say which
cells moved.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from test_golden import COMMANDS, MANIFEST, run_command  # noqa: E402


def main():
    manifest = []
    for stem, argv in COMMANDS:
        code, text = run_command(argv)
        (HERE / f"{stem}.out").write_text(text)
        manifest.append({"stem": stem, "argv": argv, "exit": code})
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
