"""The CLI's byte contract, ``data/commands.json``, in process.

Every case runs through ``cli.main`` in a fresh directory holding its
files, one test per case.  The other tests check the table (well formed,
the README's examples, the content of the former golden files) and its
runner ``commands.py``: a changed byte, a malformed case, the choice-list
rule and command mode.  Each case that names a builtin: input runs again
with the builtin replaced by a file holding its JSON, so the library's
constructors cannot drift from the data files the benchmark reads.  Every
check fails through ``pytest.fail``, so it also holds under ``python -O``.
"""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import commands
from k3lab import cli

ROOT = Path(__file__).resolve().parents[1]
CASES = commands.load()
BY_ID = {case["id"]: case for case in CASES}


def fail_on(found):
    if found:
        pytest.fail("\n".join(found))


def test_table_is_well_formed():
    fail_on(commands.problems(CASES))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_command(case):
    fail_on(commands.mismatches(case, commands.run_in_process(cli.main, case)))


def _diagonal(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


DATA = ROOT / "src" / "k3lab" / "data"
# each builtin name: (the flag that takes it, the JSON text of its twin file)
TWINS = {
    "builtin:pencil-diagonal": ("--system", json.dumps(
        {"field": "Q", "pencil": [_diagonal(1, 1, 1, 1), _diagonal(0, 1, 2, 3)]})),
    "builtin:net-diagonal": ("--system", (DATA / "net-diagonal.json").read_text("utf-8")),
    "builtin:k3-lattice": ("--lattice", (DATA / "k3-lattice.json").read_text("utf-8")),
}


def file_twin(case):
    """The case with its builtin input replaced by a file holding the same
    JSON, or None when it names no builtin or one of the wrong kind."""
    argv, files = list(case["argv"]), dict(case.get("files", {}))
    for i, token in enumerate(argv):
        if token in TWINS:
            flag, text = TWINS[token]
            if i == 0 or argv[i - 1] != flag:
                return None
            argv[i] = "twin.json"
            files["twin.json"] = text
    return dict(case, argv=argv, files=files) if "twin.json" in files else None


TWINNED = [(case, twin) for case in CASES if (twin := file_twin(case)) is not None]


@pytest.mark.parametrize("case, twin", TWINNED, ids=[case["id"] for case, _ in TWINNED])
def test_builtin_equals_its_file_twin(case, twin):
    fail_on(commands.mismatches(case, commands.run_in_process(cli.main, twin)))


def test_twins_cover_every_builtin():
    # every builtin name is twinned, and only the cross-kind misuse is not
    twinned = {token for case, _ in TWINNED for token in case["argv"] if token in TWINS}
    left_out = ({case["id"] for case in CASES if set(case["argv"]) & set(TWINS)}
                - {case["id"] for case, _ in TWINNED})
    if twinned != set(TWINS) or left_out != {"system-builtin-lattice", "lattice-builtin-net"}:
        pytest.fail(f"twinned {sorted(twinned)}, left out {sorted(left_out)}")


def readme_examples():
    """[(argv, the ``# ...`` lines right under it)] of README.md's ``k3lab``
    lines, in order."""
    examples, last = [], None
    for line in (ROOT / "README.md").read_text("utf-8").splitlines():
        if line.startswith("k3lab "):
            last = (shlex.split(line)[1:], [])
            examples.append(last)
        elif line.startswith("# ") and last is not None:
            last[1].append(line[2:])
        else:
            last = None
    return examples


def test_readme_examples_are_the_readme_cases():
    # the README's k3lab lines are the readme- cases, in order, and each
    # output shown under one is that case's stdout
    examples = readme_examples()
    cases = [case for case in CASES if case["id"].startswith("readme-")]
    if [argv for argv, _ in examples] != [case["argv"] for case in cases]:
        pytest.fail("the README's k3lab lines are not the argv of the readme- cases:\n"
                    + "\n".join(shlex.join(argv) for argv, _ in examples))
    shown = [(case, line) for (_, lines), case in zip(examples, cases) for line in lines]
    if not shown:
        pytest.fail("no README example shows its output")
    fail_on([f"{case['id']}: the README shows {line!r}, the case prints {case['stdout']!r}"
             for case, line in shown if line + "\n" != case["stdout"]])


def test_former_golden_files_keep_their_content():
    # the overlattice Grams at r = 2, 3 and at r = 4..12, and the pencil
    # counts at large p, as their golden files held them
    def group(pattern):
        return [case for case in CASES if re.fullmatch(pattern, case["id"])]

    def flag(case, name):
        return case["argv"][case["argv"].index(name) + 1]

    narrow, wide = group(r"overlattice-gram-\d+"), group(r"overlattice-gram-wide-\d+")
    counts = group(r"pencil-count-large-p-\d+")
    problems = []
    if len(narrow) != 4 or {flag(case, "--r") for case in narrow} != {"2", "3"}:
        problems.append("want 4 overlattice Grams at r = 2 and 3")
    if len(wide) != 12 or not {flag(case, "--r") for case in wide} >= {"4", "6", "8", "9",
                                                                         "10", "12"}:
        problems.append("want 12 overlattice Grams with r covering 4, 6, 8, 9, 10 and 12")
    if [flag(case, "--p") for case in counts] != ["1009", "2003"] * 3:
        problems.append("want pencil counts at p = 1009 and 2003 for three pencils")
    problems += [f"{case['id']}: exit {case['exit']}, want 0"
                 for case in narrow + wide + counts if case["exit"] != 0]
    problems += [f"{case['id']}: no --gram" for case in narrow + wide
                 if "--gram" not in case["argv"]]
    fail_on(problems)


def one_byte_changes(text, compared):
    """``text`` with the char at each offset below ``compared`` changed, and,
    when all of it is compared, with a char added and with its last one
    removed."""
    changed = [text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:] for i in range(compared)]
    if compared == len(text):
        changed.append(text + "x")
        changed += [text[:-1]] if text else []
    return changed


def test_a_one_byte_change_fails():
    # each case against its own expected bytes: any one-byte change of its
    # stdout, or of the compared part of its stderr, is a mismatch
    missed = []
    for case in CASES:
        result = (case["exit"], case["stdout"], case.get("stderr", ""))
        if commands.mismatches(case, result):
            missed.append(f"{case['id']}: does not match its own bytes")
        for field in ("stdout", "stderr"):
            text = case.get(field, "")
            cut = text.find(commands.CHOICES)
            compared = len(text) if cut < 0 else cut + len(commands.CHOICES)
            missed += [f"{case['id']}: {field} {changed!r} matches"
                       for changed in one_byte_changes(text, compared)
                       if not commands.mismatches(dict(case, **{field: changed}), result)]
    fail_on(missed)


def test_the_choice_list_rule_needs_a_choice_list():
    # a stderr that quotes argparse's choices matches however they are
    # quoted; any other stderr is compared to its last byte
    misspelt = BY_ID["misspelt-action"]
    want = misspelt["stderr"]
    cut = want.index(commands.CHOICES) + len(commands.CHOICES)
    quoted_3_12 = want[:cut] + " verify-pencil, verify-net, invariance)\n"
    problems = commands.mismatches(misspelt, (1, "", quoted_3_12))
    for case in CASES:
        err = case.get("stderr", "")
        if commands.CHOICES in err:
            continue
        problems += [f"{case['id']}: stderr {err + tail!r} matches"
                     for tail in (commands.CHOICES + " 'x')\n", "x")
                     if not commands.mismatches(case, (case["exit"], case["stdout"], err + tail))]
    fail_on(problems)


def test_a_malformed_case_is_refused(tmp_path, capsys):
    # the runner refuses a table with a malformed case before it runs any
    first = CASES[0]
    named = next(case for case in CASES if case.get("files"))
    name = next(iter(named["files"]))
    malformed = {
        "no stdout": {k: v for k, v in first.items() if k != "stdout"},
        "a file named in argv and not in files":
            dict(named, files={k: v for k, v in named["files"].items() if k != name}),
        "a nonzero exit without stderr": dict(first, exit=1),
        "a repeated id": [first, first],
    }
    table = tmp_path / "table.json"
    problems = []
    for what, bad in malformed.items():
        bad = bad if isinstance(bad, list) else [bad]
        if not commands.problems(bad):
            problems.append(f"{what}: not reported")
        table.write_text(json.dumps(bad))
        code = commands.main(["no-such-command-k3lab"], table)
        if code != 1 or "malformed command table" not in capsys.readouterr().err:
            problems.append(f"{what}: the runner exits {code} without refusing the table")
    fail_on(problems)


def run_command_mode(command, cases, tmp_path, capsys):
    """(exit code, stdout) of the runner's command mode on ``cases``."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps(cases))
    code = commands.main(command, table)
    return code, capsys.readouterr().out


def test_command_mode(tmp_path, monkeypatch, capsys):
    # each case as a subprocess of `python -m k3lab`: matching cases exit 0,
    # a changed byte exits 1 and names the case
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    command = [sys.executable, "-m", "k3lab"]
    cases = [BY_ID[name] for name in ("readme-mukai-dim", "misspelt-action", "overlattice-uu")]
    code, out = run_command_mode(command, cases, tmp_path, capsys)
    if (code, out.splitlines()[-1:]) != (0, ["3 of 3 cases match"]):
        pytest.fail(f"exit {code}:\n{out}")
    changed = dict(cases[0], stdout=cases[0]["stdout"].replace("2", "3"))
    code, out = run_command_mode(command, [changed] + cases[1:], tmp_path, capsys)
    if code != 1 or "FAIL readme-mukai-dim" not in out or "2 of 3 cases match" not in out:
        pytest.fail(f"exit {code}:\n{out}")
    # as a script it needs a command
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "commands.py")],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 2 or not proc.stderr.startswith("usage:"):
        pytest.fail(f"exit {proc.returncode}: {proc.stderr}")
