"""The CLI's byte contract: the cases of ``data/commands.json``, each run
and compared with its expected exit code, stdout and stderr.

A case is a JSON object with these fields:

``id``
    a unique name; the README's ``k3lab`` lines are the cases whose id
    starts with ``readme-``, in README order
``argv``
    the arguments after the command; an input file (the value of
    ``--system`` or ``--lattice`` other than a ``builtin:`` name) is named
    by its bare relative name
``files``
    optional: {file name: text} of the case's input files
``exit``
    the exit code
``stdout``
    the exact stdout
``stderr``
    the exact stderr of a nonzero exit; a case that exits 0 has none and
    must print nothing there
``why``
    where the case comes from and what it checks

Each case runs in a fresh temporary directory that holds its files.  Every
byte is compared, with one exception: a stderr that quotes an argparse
choice list is compared up to `` (choose from``, since Python versions
quote the choices differently.

``tests/test_commands.py`` runs every case in process through ``cli.main``.
As a script, the runner takes only a command and runs every case as a
subprocess of it::

    python tests/commands.py k3lab
    PYTHONPATH=$PWD/src python tests/commands.py python -m k3lab

It prints each mismatch and exits 1 on any.  The cases run in a temporary
directory, so a ``PYTHONPATH`` that points at the checkout must be
absolute.  Stdlib only; pytest does not collect this file.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "data" / "commands.json"
CHOICES = " (choose from"
REQUIRED = ("id", "argv", "exit", "stdout", "why")
FIELDS = frozenset(REQUIRED + ("files", "stderr"))
FILE_FLAGS = ("--system", "--lattice")


def load(path=TABLE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _named_files(argv):
    """The input files an argv names: the values of ``FILE_FLAGS`` that are
    not builtin names."""
    names = []
    for i, token in enumerate(argv):
        flag, eq, value = token.partition("=")
        if flag not in FILE_FLAGS:
            continue
        if not eq:
            value = argv[i + 1] if i + 1 < len(argv) else ""
        if not value.startswith("builtin:"):
            names.append(value)
    return names


def problems(cases):
    """What is wrong with a table, one line per fault: a missing or unknown
    field, a repeated id, a nonzero exit without its stderr (or an exit 0
    with one), or an input file named in argv and missing from ``files``
    (or given and never named)."""
    found, seen = [], set()
    for i, case in enumerate(cases):
        name = case.get("id", f"case {i}")
        found += [f"{name}: no {field}" for field in REQUIRED if field not in case]
        found += [f"{name}: unknown field {field}" for field in sorted(set(case) - FIELDS)]
        if name in seen:
            found.append(f"{name}: repeated id")
        seen.add(name)
        if "exit" in case and (case["exit"] != 0) != ("stderr" in case):
            found.append(f"{name}: a case has a stderr exactly when its exit is nonzero")
        named, given = _named_files(case.get("argv", [])), set(case.get("files", {}))
        found += [f"{name}: {f!r} is named in argv but not in files"
                  for f in named if f not in given]
        found += [f"{name}: {f!r} is in files but not named in argv"
                  for f in sorted(given - set(named))]
        found += [f"{name}: {f!r} is not a bare file name"
                  for f in sorted(given) if os.path.basename(f) != f or f in ("", ".", "..")]
    return found


@contextlib.contextmanager
def workdir(case):
    """A fresh temporary directory that holds the case's input files."""
    with tempfile.TemporaryDirectory(prefix="k3lab-case-") as tmp:
        for name, text in case.get("files", {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        yield tmp


def run_command(command, case):
    """(exit code, stdout, stderr) of ``command + argv`` run in the case's
    directory."""
    with workdir(case) as tmp:
        proc = subprocess.run([*command, *case["argv"]], cwd=tmp, capture_output=True,
                              text=True, encoding="utf-8")
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(main, case):
    """(exit code, stdout, stderr) of ``main(argv)`` called with the case's
    directory as the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with workdir(case) as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(case["argv"]))
        finally:
            os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def _difference(stream, got, want):
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return (f"{stream} differs at offset {at} (got {len(got)} chars, want {len(want)}): "
            f"got {got[at:at + 60]!r}, want {want[at:at + 60]!r}")


def mismatches(case, result):
    """How ``result`` = (exit code, stdout, stderr) differs from the case,
    one line per stream; empty when it matches."""
    code, out, err = result
    want_err = case.get("stderr", "")
    cut = want_err.find(CHOICES)
    if cut >= 0:  # the choice list itself is quoted differently across versions
        cut += len(CHOICES)
        err, want_err = err[:cut], want_err[:cut]
    found = [] if code == case["exit"] else [f"exit {code}, want {case['exit']}"]
    found += [_difference(stream, got, want)
              for stream, got, want in (("stdout", out, case["stdout"]), ("stderr", err, want_err))
              if got != want]
    return found


def main(command, table=TABLE):
    """Run every case of ``table`` as a subprocess of ``command``; 0 when
    all match, 1 otherwise."""
    if not command:
        sys.stderr.write("usage: python tests/commands.py COMMAND...\n")
        return 2
    cases = load(table)
    bad = problems(cases)
    if bad:
        sys.stderr.write("malformed command table:\n" + "\n".join(bad) + "\n")
        return 1
    failed = 0
    for case in cases:
        try:
            found = mismatches(case, run_command(command, case))
        except OSError as exc:
            found = [f"cannot run {command[0]}: {exc}"]
        if found:
            failed += 1
            print(f"FAIL {case['id']}: {' '.join(case['argv'])}")
            print("\n".join("  " + line for line in found))
    print(f"{len(cases) - failed} of {len(cases)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
