#!/usr/bin/env python3
"""List the library lines that no command reaches, and the library that
each demo command loads.

In one process under sys.settrace, runs `atk selftest`, the demo commands
of scripts/demo_session.py on its demo session, the `sff` presets of
tests/golden/sff.txt, the help and usage-error command lines of
tests/golden/usage.txt and the loop of scripts/run_corpus.py, all in
process and with their stdout and stderr discarded.  Then prints, per module of
src/atkernel, how many executable lines none of them reached, followed by
those lines.  Executable lines are those of the module's compiled code
objects.  Last, it runs each demo command in a fresh `atk` process and
prints the source lines (as `wc -l` counts them) of the atkernel modules
that the process loaded, which is what it compiles without a bytecode
cache, and the standard-library modules it loaded beyond those of
`python -c pass`, so that a start-up import such as argparse or
dataclasses shows.  Standard library only.

Usage: python scripts/line_sweep.py
"""
import contextlib
import importlib.util
import io
import os
import re
import subprocess
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
    usage = (ROOT / "tests" / "golden" / "usage.txt").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
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
        cwd = os.getcwd()
        os.chdir(tmp)  # the usage lines name the session as demo.sr
        try:
            for command in re.findall(r"^\$ atk\b(.*)$", usage, flags=re.M):
                with contextlib.suppress(SystemExit):
                    main(command.split())
        finally:
            os.chdir(cwd)
        _script("run_corpus").main()


# names the modules loaded; after `atk <argv>`, run with its stdout
# discarded, in LOADED, and with nothing run in PASS
PASS = "import sys\nprint(' '.join(sorted(sys.modules)))"
LOADED = (
    "import io, sys\n"
    "from atkernel.cli import main\n"
    "sys.stdout = io.StringIO()\n"
    "main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
) + PASS


def loaded_per_command() -> list[tuple[str, list[str], list[str]]]:
    """(command line, atkernel modules loaded, other modules loaded beyond
    those of `python -c pass`) per demo command, each run in a fresh
    interpreter on this checkout's sources."""
    demo = _script("demo_session")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    base = set(subprocess.run([sys.executable, "-c", PASS], env=env, capture_output=True,
                              text=True, check=True).stdout.split())
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.sr"
        path.write_text(demo.SESSION)
        for command in demo.COMMANDS:
            argv = list(command)
            if argv[0] not in ("sff", "iclosure", "curvdim", "dimcheck"):
                argv += ["--input", str(path)]
            proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                                  capture_output=True, text=True, check=True)
            loaded = proc.stdout.split()
            out.append((" ".join(command), [m for m in loaded if m.split(".")[0] == "atkernel"],
                        [m for m in loaded if m.split(".")[0] != "atkernel" and m not in base]))
    return out


def source_lines(module: str) -> int:
    """The lines of an atkernel module's source file."""
    parts = module.split(".")[1:] or ["__init__"]
    return len((LIB / f"{parts[0]}.py").read_text().splitlines())


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
    print("library loaded by a fresh `atk` process:")
    for command, modules, stdlib in loaded_per_command():
        lines = sum(source_lines(m) for m in modules)
        names = ", ".join(m.split(".", 1)[-1] for m in modules)
        print(f"  {command}: {lines} lines in {len(modules)} modules ({names})")
        print(f"    standard library beyond `python -c pass`: {', '.join(stdlib) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
