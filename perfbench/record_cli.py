"""Record the stdout of the demo-session commands as the `cli` workload's
expected output.

    python3 perfbench/record_cli.py

Run it only at a commit whose output is known good: every later run of
the benchmark compares against these bytes.
"""
import json
import subprocess
import sys
from pathlib import Path

import cases
from run import ATK, ROOT, WORK, _env

if __name__ == "__main__":
    WORK.mkdir(exist_ok=True)
    for name, text in cases.SESSIONS.items():
        (WORK / name).write_text(text)
    recorded = {}
    for argv in cases.DEMO_COMMANDS:
        proc = subprocess.run([sys.executable, "-c", ATK, *cases._with_input(argv, "demo.sr")],
                              cwd=WORK, env=_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        recorded[" ".join(argv)] = proc.stdout
    out = Path(cases.__file__).with_name("cli_expected.json")
    out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} commands from {ROOT} into {out}")
