#!/usr/bin/env python3
"""List the library lines that no command reaches.

In one process under sys.settrace, runs `atk selftest`, the demo commands
of scripts/demo_session.py on its demo session, the `sff` presets of
tests/golden/sff.txt and the loop of scripts/run_corpus.py, all in
process and with their stdout discarded.  Then prints, per module of
src/atkernel, how many executable lines none of them reached, followed by
those lines.  Executable lines are those of the module's compiled code
objects.  Standard library only.

Usage: python scripts/line_sweep.py
"""
import contextlib
import importlib.util
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "atkernel"
sys.path.insert(0, str(ROOT / "src"))

reached: dict[str, set[int]] = {}


def _local(frame, event, arg):
    reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(str(LIB)):
        return None
    reached.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _script(name: str):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_commands() -> None:
    from atkernel.cli import main

    demo = _script("demo_session")
    golden = (ROOT / "tests" / "golden" / "sff.txt").read_text()
    presets = re.findall(r"^\$ atk (sff --preset .*)$", golden, flags=re.M)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "demo.sr"
        path.write_text(demo.SESSION)
        main(["selftest"])
        for command in demo.COMMANDS:
            argv = list(command)
            if argv[0] not in ("sff", "iclosure", "curvdim", "dimcheck"):
                argv += ["--input", str(path)]
            main(argv)
        for command in presets:
            main(command.split(" ", 2))
        _script("run_corpus").main()


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    sys.settrace(_global)
    try:
        run_commands()
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(LIB.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached")
        source = path.read_text().splitlines()
        for line in missed:
            print(f"  {line}: {source[line - 1].strip()}")
    print(f"total: {total} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
