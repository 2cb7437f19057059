"""Every function in ``src/k3lab`` is reached by the CLI or allowlisted.

A fixed command set runs in process through ``cli.main`` under
``sys.settrace``, which records the code object of every Python call.  A
generator's code counts only once a line of it runs: CPython fires a call
event when it closes a generator object that never started, so a function
that creates and drops a generator would otherwise reach its body.
The commands are the ``k3lab ...`` lines of README.md's examples (each must
exit 0) and every case of ``tests/data/commands.json`` (each must exit with
its ``exit``), run in a directory holding its files.

Every ``def`` in the package, found by parsing its source, must be reached
or named in ``ALLOWLIST`` with a reason.  Methods are named
``module.Class.method``, nested functions ``module.outer.<locals>.inner``;
special methods (``__eq__``, ``__add__``, ``__repr__``, ...) count like any
other def, so an operator or a repr that no command uses is either
documented API with its reason here or deleted.  An allowlisted name that
no longer exists or that the commands reach fails too, so the list cannot
go stale.  A new function has to be reached by the command set or be
allowlisted here with its reason.  Every check fails through
``pytest.fail``, so it also holds under ``python -O``.
"""

import argparse
import ast
import contextlib
import importlib.util
import inspect
import os
import shlex
import sys
from pathlib import Path

import pytest

import commands
import k3lab
from k3lab import cli

SRC = Path(k3lab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# modules that hold only imports, exception classes or a script body
NO_DEFS = frozenset({"__init__", "__main__", "errors"})

TRACER = "wrapped by the bench tracer until ROADMAP item 2"
# special methods that documented API needs, one reason per group
POLY_RING = ("MultiPoly arithmetic: acceptance criteria 2 and 5 and the README's "
             "pfaffian(m)**2 == poly_det(m)")
GF_ARITHMETIC = "GFElement field arithmetic, reflected operators included (exported scalars)"
HASH = "hashes as the class's __eq__ compares, which stays"
ALLOWLIST = {
    # called by name from bench/tracing.py TARGETS, and README-documented API
    "linalg.solve": TRACER,
    "linalg.rank": TRACER,
    "linalg.inverse": TRACER,
    "linalg.nullspace": TRACER,
    "linalg.mat_mul": TRACER,
    "linalg.congruence_diagonalize": TRACER,
    "quadforms.witt_split": TRACER,
    "quadforms.isotropic_vector": TRACER,
    "quadforms.QuadraticForm.eval": TRACER,
    "quadforms.QuadraticForm.bilinear": TRACER,
    "poly.MultiPoly.eval": TRACER,
    "scalars.PrimeField.sqrt": TRACER,
    "scalars.PrimeField.legendre": TRACER,
    "lattices.IntegralLattice.pairing": TRACER,
    "lattices.hnf_row_basis": "the generic oracle of _stack_hnf; " + TRACER,
    # overlattice and l_zero_sublattice build their Grams by congruence
    "lattices.l_zero_basis": "exported L0 basis; " + TRACER,
    "lattices._kernel_of_functional_mod": "the body of l_zero_basis",
    # kernels of the boxed solvers above, and the general routes of the oracles
    "linalg.int_inverse": "the int kernel of linalg.inverse; the general "
                          "route of oracles.model_rows_by_inverse",
    "linalg.int_nullspace": "the int kernel of linalg.nullspace; the kernel "
                            "route of the symmetric elimination's complements "
                            "in test_raw_kernels",
    # entry points and error paths no command of the set takes
    "cli.main_entry": "the console script; runs cli.main in a new process",
    "cli._VerificationExit.__init__": "raised only when a sampled identity is "
                                      "falsified (exit 3)",
    "construction.random_gl": "exported: GL elements for covariance checks "
                              "(acceptance criterion 8)",
    "construction.wedge2_matrix": "exported: the action of GL(4) on Klein "
                                  "coordinates (acceptance criterion 8)",
    # library API the CLI does not use
    "enumerative.brill_noether_number": "exported enumerative bookkeeping",
    "enumerative.restriction_section_bound": "exported enumerative bookkeeping",
    "lattices.MukaiVector.chi": "exported Mukai-vector API",
    "lattices.is_rigid": "exported Mukai-vector API",
    "lattices.is_k3_moduli": "exported Mukai-vector API",
    "lattices.IntegralLattice.norm": "exported lattice API (acceptance criterion 7)",
    "lattices.OverlatticeSpec.alpha_sq": "exported OverlatticeSpec API",
    "lattices.l_zero_sublattice": "exported: the lattice L0 that overlattice "
                                  "builds on (README)",
    "poly.poly_from_text": "exported: the parser of the polynomial text format "
                           "(README)",
    "poly.MultiPoly._check": "the operand check of MultiPoly arithmetic",
    "poly.MultiPoly.coeff": "exported MultiPoly API",
    "poly.MultiPoly.zero": "exported MultiPoly API (acceptance criterion 5)",
    "poly.MultiPoly.const": "exported MultiPoly API (acceptance criterion 5)",
    "poly.MultiPoly.var": "exported MultiPoly API (acceptance criterion 5)",
    "polymat.PolyMatrix.__init__": "exported: input of poly_det and pfaffian",
    "polymat.PolyMatrix.nrows": "exported PolyMatrix API",
    "polymat.PolyMatrix.ncols": "exported PolyMatrix API",
    "polymat.PolyMatrix.is_alternating": "the precondition check of pfaffian",
    "polymat.poly_det": "exported symbolic determinant (README)",
    "polymat.pfaffian": "exported symbolic Pfaffian (README)",
    "polymat._pack": "packs the entries of poly_det and pfaffian",
    "polymat._expand": "the kernel of the exported poly_det and pfaffian and of "
                       "expansions above degree 2",
    "polymat._expand.<locals>.minor": "the kernel of the exported poly_det and pfaffian "
                                      "and of expansions above degree 2",
    "polymat.LinearMatrix.__init__": "exported: the validating constructor; the "
                                     "package builds its own results by _of_raw",
    "polymat.LinearMatrix.coeff_mats": "exported LinearMatrix API",
    "polymat.LinearMatrix.pfaffian_poly": "exported LinearMatrix API",
    "quadforms.QuadraticForm.gram": "exported QuadraticForm API",
    "quadforms.QuadraticForm._pair": "the bilinear form behind eval and bilinear",
    "quadforms.diagonalize": "exported quadratic-form API (README)",
    "quadforms.is_split": "exported quadratic-form API (README)",
    "scalars.RationalField.one": "exported field API, the counterpart of "
                                 "PrimeField.one",
    "scalars.RationalField.zero": "exported field API, the counterpart of "
                                  "PrimeField.zero",
    "scalars.Immutable.__setattr__": "the one immutability refusal of the value "
                                     "types; no command assigns to a value "
                                     "(test_explicit_checks forces it)",
    "poly.MultiPoly.__add__": POLY_RING,
    "poly.MultiPoly.__sub__": POLY_RING,
    "poly.MultiPoly.__neg__": POLY_RING,
    "poly.MultiPoly.__mul__": POLY_RING,
    "poly.MultiPoly.__pow__": POLY_RING,
    "poly.MultiPoly.__eq__": POLY_RING,
    "scalars.GFElement.__add__": GF_ARITHMETIC,
    "scalars.GFElement.__neg__": GF_ARITHMETIC,
    "scalars.GFElement.__rsub__": GF_ARITHMETIC,
    "scalars.GFElement.__rtruediv__": GF_ARITHMETIC,
    "scalars.GFElement.__hash__": HASH,
    "scalars.RationalField.__hash__": HASH,
}


def readme_commands():
    """The ``k3lab ...`` lines of README.md's examples, as argv lists."""
    return [shlex.split(line)[1:]
            for line in (ROOT / "README.md").read_text("utf-8").splitlines()
            if line.startswith("k3lab ")]


def collect_defs(src):
    """{(source path, first line of its code object): (name, def line)} for
    every def in the modules of ``src``.  A decorated function's code starts
    at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = (f"{path.stem}.{name}", child.lineno)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text("utf-8")), path, "")
    return out


GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


@contextlib.contextmanager
def reached_code():
    """Yield the set of code objects that run inside the block: a function's
    at its call event, a generator's at its first line event."""
    seen = set()

    def first_line(frame, event, arg):
        if event == "line":
            seen.add(frame.f_code)
            return None  # one line is enough: stop tracing this frame
        return first_line

    def trace(frame, event, arg):
        code = frame.f_code
        if code in seen:
            return None
        if code.co_flags & GENERATOR_FLAGS:
            return first_line
        seen.add(code)
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def real_keys(codes):
    """{(real source path, first line)} of code objects."""
    real = {}
    for code in codes:
        if code.co_filename not in real:
            real[code.co_filename] = os.path.realpath(code.co_filename)
    return {(real[c.co_filename], c.co_firstlineno) for c in codes}


def run_traced(cases):
    """Run each case (its ``argv`` and ``files``) through ``cli.main`` inside
    ``reached_code``: (exit codes, {(real source path, first line)} of the
    code that ran)."""
    # memoized functions (build_parser, the builtin inputs, the Witt
    # targets) must run their bodies inside the traced window, whatever
    # other tests ran before
    for module in [m for n, m in sys.modules.items() if n.startswith("k3lab.")]:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    codes = []
    with reached_code() as seen:
        for case in cases:
            codes.append(commands.run_in_process(cli.main, case)[0])
    return codes, real_keys(seen)


@pytest.fixture(scope="module")
def audit():
    readme = readme_commands()
    table = commands.load()
    previous = sys.gettrace()
    codes, reached = run_traced([{"argv": argv} for argv in readme] + table)
    defs = collect_defs(SRC)
    return {
        "readme": list(zip(readme, codes)),
        "table": list(zip(table, codes[len(readme):])),
        "defs": defs,
        "reached": {name for key, (name, _) in defs.items() if key in reached},
        "trace_restored": sys.gettrace() is previous,
    }


def test_readme_commands_exit_zero(audit):
    groups = next(set(action.choices) for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
    covered = {argv[0] for argv, _ in audit["readme"]}
    if covered != groups:
        pytest.fail(f"README examples cover {sorted(covered)}, the CLI has {sorted(groups)}")
    bad = [f"k3lab {shlex.join(argv)} -> exit {code}" for argv, code in audit["readme"]
           if code != 0]
    if bad:
        pytest.fail("README commands that do not exit 0:\n" + "\n".join(bad))


def test_extra_commands_exit_codes(audit):
    # every case of the command table exits with its exit code
    bad = [f"{case['id']}: k3lab {shlex.join(case['argv'])} -> exit {got}, want {case['exit']}"
           for case, got in audit["table"] if got != case["exit"]]
    if bad:
        pytest.fail("\n".join(bad))


def unreached(defs, reached, allowlist):
    """Sorted (path, def line, name) of the functions of ``defs`` that are
    neither reached nor allowlisted."""
    return sorted((path, line, name) for (path, _), (name, line) in defs.items()
                  if name not in reached and name not in allowlist)


def test_every_function_is_reached_or_allowlisted(audit):
    missing = [(os.path.relpath(path, ROOT), line, name)
               for path, line, name in unreached(audit["defs"], audit["reached"], ALLOWLIST)]
    if missing:
        pytest.fail("functions no command reaches; reach them from the command set, "
                    "delete them, or allowlist them with a reason:\n"
                    + "\n".join(f"{path}:{line} {name}" for path, line, name in missing))


def test_allowlist_is_current(audit):
    names = {name for name, _ in audit["defs"].values()}
    problems = [f"{name}: no such function" for name in ALLOWLIST if name not in names]
    problems += [f"{name}: reached, so drop it from the allowlist"
                 for name in ALLOWLIST if name in audit["reached"]]
    problems += [f"{name}: no reason given" for name, why in ALLOWLIST.items()
                 if not (isinstance(why, str) and why.strip())]
    if problems:
        pytest.fail("\n".join(sorted(problems)))


def test_guard_is_not_vacuous(audit):
    modules = {name.split(".", 1)[0] for name, _ in audit["defs"].values()}
    want = {path.stem for path in SRC.glob("*.py")} - NO_DEFS
    if modules != want:
        pytest.fail(f"collected functions from {sorted(modules)}, want {sorted(want)}")
    for name in ("cli.main", "construction.sample_point", "scalars.projective_points",
                 "cli._Parser.error", "cli._parse_gram.<locals>.entry"):
        if name not in audit["reached"]:
            pytest.fail(f"{name} should be reached by the command set")
    for name in ("linalg.solve", "quadforms.witt_split"):
        if name in audit["reached"]:
            pytest.fail(f"{name} should not be reached by the command set")
    if not audit["trace_restored"]:
        pytest.fail("the previous trace function was not restored")


MUTANT = """\
def drops():
    gen()  # a generator object, created and dropped without running


def runs():
    return next(gen())


def gen():
    yield 1
"""


DUNDER_MUTANT = """\
class Value:
    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return self.v == other.v

    def __repr__(self):
        return f"Value({self.v})"


def compare():
    return Value(1) == Value(1)
"""


def load_mutant(tmp_path, source):
    """``source`` as the module ``mutant``, loaded from a file in
    ``tmp_path``, and the defs the audit collects from it."""
    path = tmp_path.resolve() / "mutant.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("mutant", path)
    mutant = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutant)
    return mutant, collect_defs(path.parent)


def reported(defs, entry, allowlist):
    """The names the audit reports unreached after running ``entry()``."""
    with reached_code() as seen:
        entry()
    reached = {name for key, (name, _) in defs.items() if key in real_keys(seen)}
    return {name for _, _, name in unreached(defs, reached, allowlist)}


def test_guard_counts_a_generator_only_once_it_runs(tmp_path):
    # CPython fires a call event when it closes the unstarted generator of
    # drops(), which a profiler took for a run of gen's body
    mutant, defs = load_mutant(tmp_path, MUTANT)
    for entry, want in ((mutant.drops, {"mutant.gen", "mutant.runs"}),
                        (mutant.runs, {"mutant.drops"})):
        got = reported(defs, entry, {})
        if got != want:
            pytest.fail(f"after {entry.__name__}() the guard reports {sorted(got)} "
                        f"unreached, want {sorted(want)}")


def test_guard_reports_an_unreached_special_method_until_allowlisted(tmp_path):
    # == runs Value.__eq__, which counts as reached; nothing prints a Value
    mutant, defs = load_mutant(tmp_path, DUNDER_MUTANT)
    for allowlist, want in (({}, {"mutant.Value.__repr__"}),
                            ({"mutant.Value.__repr__": "a reason"}, set())):
        got = reported(defs, mutant.compare, allowlist)
        if got != want:
            pytest.fail(f"with allowlist {sorted(allowlist)} the guard reports "
                        f"{sorted(got)} unreached, want {sorted(want)}")
