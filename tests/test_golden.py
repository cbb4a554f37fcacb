"""The CLI outputs of eleven commands against stored golden outputs.

Run in-process through ``cli.main``.  Column names, statuses, windings and
exit codes must match exactly; numeric cells to 1e-12 relative.  In the
``--full-os`` commands the cells that come from the banded LU solves (the
gap, the exact root and growth rate, the exported fields and energies) may
move by 1e-8 of their column's largest magnitude, so that the comparison
also holds where LAPACK rounds differently.  ``tests/golden/regenerate.py``
rewrites the stored outputs.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from tswave import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "commands.json"

# (file stem, argv) of every stored command
COMMANDS = [
    ("sweep_eighth", "sweep --A 2 --eps-list 1e-8,1e-12,1e-16"),
    ("sweep_beta_json", "sweep --M 1 --beta 0.1075 --eps-list 1e-20,1e-24 --format json"),
    ("sweep_full_os", "sweep --A 2 --eps 1e-12 --full-os --grid-n 400"),
    ("root", "root --A 2 --eps 1e-12"),
    ("audit", "audit --A 3 --eps 1e-15"),
    ("validate", "validate --A 2 --eps 1e-12"),
    ("export_full_os", "export-mode --A 2 --eps 1e-12 --full-os --t-list 0,5e-4 "
                       "--nx 8 --ny 32"),
    ("airy_table", "airy-table"),
    ("audit_beta", "audit --M 1 --beta 0.11 --eps 1e-24"),
    ("root_beta", "root --M 1 --beta 0.115 --eps 1.17e-42"),
    ("export_beta", "export-mode --M 1 --beta 0.11 --eps 1e-24 --nx 2 --ny 8"),
]
STRICT_RTOL = 1e-12
SOLVE_RTOL = 1e-8
SOLVE_COLUMNS = {"gamma_gap_max", "re_c_exact", "im_c_exact", "growth_rate",
                 "slope_growth_rate", "u", "v", "hx", "hy", "energy_t"}


def run_command(argv):
    """(exit code, stdout) of ``tswave argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv.split())
    return code, out.getvalue()


def cells(text):
    """(column, value) of every cell of a CLI output, in order: JSON leaves
    under their innermost key, CSV cells under their header name and footer
    lines ``# key,value`` under their key."""
    if text.startswith(("[", "{")):
        out = []

        def walk(node, key):
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(node[k], k)
            elif isinstance(node, list):
                for item in node:
                    walk(item, key)
            else:
                out.append((key, node))

        walk(json.loads(text), None)
        return out
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    rows = list(csv.reader(body))
    out = [("header", ",".join(rows[0]))]
    out += [(name, cell) for row in rows[1:] for name, cell in zip(rows[0], row)]
    out += [tuple(line[2:].split(",", 1)) for line in lines if line.startswith("# ")]
    return out


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except ValueError:
        return None


def assert_outputs_agree(got, want, solve_columns=()):
    got_cells, want_cells = cells(got), cells(want)
    assert [c for c, _ in got_cells] == [c for c, _ in want_cells]
    scale = {}
    for col, w in want_cells:
        wv = _number(w)
        if col in solve_columns and wv is not None and math.isfinite(wv):
            scale[col] = max(scale.get(col, 0.0), abs(wv))
    for (col, g), (_, w) in zip(got_cells, want_cells):
        gv, wv = _number(g), _number(w)
        if gv is None or wv is None or not math.isfinite(wv):
            assert g == w or (wv is not None and math.isnan(wv) and math.isnan(gv)), col
        elif col in solve_columns:
            assert abs(gv - wv) <= SOLVE_RTOL * scale[col], (col, g, w)
        else:
            assert abs(gv - wv) <= STRICT_RTOL * max(abs(gv), abs(wv)), (col, g, w)


def _stored():
    return {entry["stem"]: entry for entry in json.loads(MANIFEST.read_text())}


def test_manifest_lists_every_command():
    assert [(e["stem"], e["argv"]) for e in _stored().values()] == COMMANDS


@pytest.mark.parametrize("stem, argv", COMMANDS, ids=[stem for stem, _ in COMMANDS])
def test_cli_output_matches_golden(stem, argv):
    entry = _stored()[stem]
    code, text = run_command(argv)
    assert code == entry["exit"]
    want = (GOLDEN / f"{stem}.out").read_text()
    assert_outputs_agree(text, want, SOLVE_COLUMNS if "--full-os" in argv else ())


def test_comparison_catches_moved_cells():
    want = "a,b,status\n1.0,2.0,ok\n# slope_a,0.5\n"
    assert_outputs_agree("a,b,status\n1.0000000000001,2.0,ok\n# slope_a,0.5\n", want)
    for got in ("a,b,status\n1.000000001,2.0,ok\n# slope_a,0.5\n",
                "a,b,status\n1.0,2.0,winding=0\n# slope_a,0.5\n",
                "a,c,status\n1.0,2.0,ok\n# slope_a,0.5\n",
                "a,b,status\n1.0,2.0,ok\n# slope_a,0.6\n",
                "a,b,status\n1.0,nan,ok\n# slope_a,0.5\n"):
        with pytest.raises(AssertionError):
            assert_outputs_agree(got, want)
    assert_outputs_agree('{"u": [1.0, 1e-12]}', '{"u": [1.0, 2e-12]}', {"u"})
    with pytest.raises(AssertionError):
        assert_outputs_agree('{"u": [1.0, 1e-12]}', '{"u": [1.0, 2e-12]}')
