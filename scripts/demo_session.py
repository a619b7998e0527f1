#!/usr/bin/env python3
"""Write a demo session file and run every CLI command against it.

Usage: python scripts/demo_session.py [workdir], with atkernel importable
(`pip install -e .` or PYTHONPATH=src), as the `atk` children need it too.
"""
import subprocess
import sys
import tempfile
from pathlib import Path

from atkernel.cli import COMMANDS as CLI_COMMANDS

SESSION = """\
ring Q[x, y, z]
seq Z = x^2 - y*z ; y^2 - x*z
hom phi on Z = 1 ; 0
hom rho on Z = y ; x
der ddx = x: 1
"""

COMMANDS = [
    ["blochcmp", "--hom", "phi"],
    ["blochcmp", "--hom", "rho"],
    ["ch", "--seq", "Z"],
    ["ch", "--seq", "Z", "--k", "1"],
    ["atk", "--seq", "Z", "--power", "2"],
    ["atk", "--seq", "Z", "--power", "1", "--derivation", "ddx"],
    ["obstruct", "--seq", "Z", "--derivation", "ddx"],
    ["semireg", "--hom", "phi", "--k", "1"],
    ["sff", "--preset", "euler"],
    ["sff", "--preset", "hypersurface:x^2"],
    ["iclosure", "--ideal", "x^3,y^3", "--test", "x^2*y"],
    ["curvdim", "--ideal", "x^2,x*y,y^2"],
    ["dimcheck", "--ideal", "x*y"],
]

# the commands that read a session file: those with an --input flag
READS_SESSION = {name for name, (_, _, flags) in CLI_COMMANDS.items()
                 if any(option == "--input" for option, _, _ in flags)}


def command_line(command: list[str], session_path: Path) -> list[str]:
    """The arguments of `atk` for a demo command, reading session_path if
    the command reads a session."""
    if command[0] in READS_SESSION:
        return [*command, "--input", str(session_path)]
    return list(command)


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    session_path = workdir / "demo.sr"
    session_path.write_text(SESSION)
    worst = 0
    for command in COMMANDS:
        full = [sys.executable, "-m", "atkernel.cli", *command_line(command, session_path)]
        print(f"$ atk {' '.join(command)}")
        proc = subprocess.run(full, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        print()
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
