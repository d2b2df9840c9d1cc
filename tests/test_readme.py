"""The README's library example runs against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the first python block under "## Library", so the documented imports
    # cannot drift from the package
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = subprocess.run([sys.executable, "-c", example], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
