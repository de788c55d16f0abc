"""The worked cubic study script prints the committed report."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).parent / "data" / "cubic_study_paths20.txt"


def test_cubic_study_report_is_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_cubic_study.py"),
         "--paths", "20", "--samples", "500"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    # elapsed times are the only part of the report that may vary
    report = re.sub(r"\[\d+\.\d\ds\]", "[x.xxs]", run.stdout)
    assert report == EXPECTED.read_text()
