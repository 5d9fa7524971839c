"""The text output of scripts/run_worked_examples.py, pinned.

The JSON goldens cover `--json`; this transcript covers the text mode of
every command the script drives. To re-record after an intended change of
output:

    python3 scripts/run_worked_examples.py > tests/golden/worked_examples.txt
"""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worked_examples_transcript(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "run_worked_examples.py"))
    assert script["run"]() == 0
    expected = (ROOT / "tests" / "golden" / "worked_examples.txt").read_text()
    assert capsys.readouterr().out == expected
