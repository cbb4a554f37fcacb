"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares
against: one ``<stem>.out`` per command and the manifest ``commands.json``
with each command's argv and exit code.

    python tests/golden/regenerate.py            # rewrite every output
    python tests/golden/regenerate.py --check    # write nothing; list the
                                                 # stems that differ, exit 1

Regenerate only for a change meant to move the outputs, and say which
cells moved.  ``--check`` compares byte for byte (and the exit code against
the manifest), where the test allows 1e-12 relative: it is the check for a
change that promises identical outputs.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from test_golden import COMMANDS, MANIFEST, run_command  # noqa: E402


def check():
    """Stems whose output or exit code differs from the stored one."""
    stored = {e["stem"]: e for e in json.loads(MANIFEST.read_text())}
    differ = []
    for stem, argv in COMMANDS:
        code, text = run_command(argv)
        out = HERE / f"{stem}.out"
        entry = stored.get(stem)
        if (entry is None or entry["argv"] != argv or entry["exit"] != code
                or not out.exists() or out.read_text() != text):
            differ.append(stem)
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the stems whose output differs "
                             "from the stored file byte for byte, exit 1 if any")
    if parser.parse_args(argv).check:
        differ = check()
        for stem in differ:
            print(stem)
        return 1 if differ else 0
    manifest = []
    for stem, argv_ in COMMANDS:
        code, text = run_command(argv_)
        (HERE / f"{stem}.out").write_text(text)
        manifest.append({"stem": stem, "argv": argv_, "exit": code})
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
