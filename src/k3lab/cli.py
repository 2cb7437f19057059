"""Command-line entry point.

Every subcommand prints one deterministic report (canonical JSON by
default, a flat text rendering with ``--format text``) so identical
invocations are byte-identical.  Exit codes: 0 success, 1 parse errors,
2 precondition violations, 3 verification failures.

Input files are UTF-8 JSON.  Gram matrices are arrays of row arrays whose
entries are integers or exact-rational strings "num/den"; quadric systems
look like ``{"pencil": [G1, G2], "field": "Q"}`` (or ``"net": [G1, G2,
G3]``), lattices like ``{"label": "K3", "gram": [[...], ...]}``.  The
paper's model objects are inputs by name, built by the library itself:
``builtin:pencil-diagonal`` (the diagonal pencil of the genus-one curve),
``builtin:net-diagonal`` (the diagonal net of the Mukai double plane) and
``builtin:k3-lattice`` (U^3 + E8(-1)^2, also the default ``--lattice``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import re
import sys
from fractions import Fraction

from .construction import (group_invariance_check, random_sl, sample_point,
                           verify_relation)
from .enumerative import (EXPECTED_DIM_BASIS, fano_degree, fano_genus_allowed,
                          HOMOGENEOUS_SPACES, linear_section_invariants,
                          pairs_moduli_dims, type_ii_expected_dim,
                          type_iii_expected_dim)
from .errors import K3LabError, PreconditionError, VerificationFailure
from .lattices import (IntegralLattice, MukaiVector, OverlatticeSpec,
                       k3_lattice, lattice_invariants, moduli_dim,
                       overlattice)
from .poly import MultiPoly, poly_to_text
from .quadforms import QuadraticForm, matrix_model
from .scalars import GF, QQ, GFElement
from .systems import (DEFAULT_PROBE_PRIMES, MAX_SWEEP_PRIME, CoverVerdict,
                      DoubleCoverDescriptor, NetOfQuadrics, PencilOfQuadrics,
                      count_points, jacobian_j_invariant, moduli_double_cover,
                      net_discriminant, net_smoothness_probe, pencil_discriminant,
                      pic2_double_cover)

# The builtin inputs: the library's constructors of the paper's model objects.
_BUILTINS = {
    "builtin:pencil-diagonal": lambda: PencilOfQuadrics.from_diagonals(
        [1, 1, 1, 1], [0, 1, 2, 3]),
    "builtin:net-diagonal": lambda: NetOfQuadrics.from_diagonals(
        [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25]),
    "builtin:k3-lattice": k3_lattice,
}


class CLIParseError(Exception):
    """Bad flags or bad input syntax (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIParseError(message)


@functools.cache
def _builtin(name: str):
    """The object of a ``builtin:`` name, built once per process: systems and
    lattices are immutable, so one copy, with its memoized discriminant or
    det and signature, serves every op."""
    return _BUILTINS[name]()


def _read_json(path: str):
    """The JSON document of a user's input file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer beyond Python's int-string conversion limit
        raise CLIParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested too deeply to decode
        raise CLIParseError(f"{path}: JSON nested too deeply") from exc


# "F" and a prime in canonical ASCII decimal: no sign, "_" or leading zero.
# 20 digits are far past GF's bound of 2**31, whose BadPrime then names it.
_FIELD_TAG = re.compile(r"F[1-9][0-9]{0,19}")


def _parse_field(tag):
    if tag in (None, "Q"):
        return QQ
    if isinstance(tag, str) and _FIELD_TAG.fullmatch(tag):
        return GF(int(tag[1:]))
    raise CLIParseError(f"bad field tag {tag!r}")


def _parse_gram(rows):
    """A Gram matrix's entries as raw representatives: JSON integers as ints,
    "num/den" strings as Fractions.  ``QuadraticForm`` takes them into the
    system's field."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise CLIParseError("a Gram matrix must be an array of row arrays")

    def entry(x):
        if type(x) is int:  # JSON true/false are not integers
            return x
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise CLIParseError(f"bad Gram entry {x!r}")

    return [[entry(x) for x in row] for row in rows]


def _check_keys(doc, what, allowed):
    """CLIParseError naming the first key of the JSON object ``doc`` that is
    not in ``allowed``."""
    bad = next((key for key in doc if key not in allowed), None)
    if bad is not None:
        raise CLIParseError(f"{what} file has an unknown key {bad!r}")


def load_system(path: str, p=None):
    """A PencilOfQuadrics or NetOfQuadrics from a builtin name or a JSON
    file: an object with exactly one of the keys 'pencil' and 'net', and
    optionally 'field'.

    A builtin is the library's own system over Q, whatever ``p``; the
    caller reduces it mod p (``QuadricSystem.reduce_mod``).  Given a prime
    ``p`` (the construct commands' --p), a file's system over Q is built
    straight over GF(p): each Gram matrix is checked on its raw entries and
    reduced entry by entry, and the one independence check runs mod p,
    which implies independence over Q.  When that fails (p is not an odd
    prime below 2**31, divides a denominator, or the forms are dependent
    mod p), the system is built over Q as without ``p``.  So the errors come
    in the order of that route: its own, then the caller's checks, then
    BadPrime and BadReduction when the caller reduces it mod p."""
    if path in _BUILTINS:
        system = _builtin(path)
        if not isinstance(system, (PencilOfQuadrics, NetOfQuadrics)):
            raise CLIParseError(f"{path} is not a pencil or a net")
        return system
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise CLIParseError("system file must be a JSON object")
    _check_keys(doc, "system", ("pencil", "net", "field"))
    if "pencil" in doc and "net" in doc:
        raise CLIParseError("system file has both a 'pencil' and a 'net' key")
    field = _parse_field(doc.get("field"))
    for cls, count in ((PencilOfQuadrics, "two"), (NetOfQuadrics, "three")):
        if cls.KIND in doc:
            grams = doc[cls.KIND]
            if not isinstance(grams, list) or len(grams) != cls.NFORMS:
                raise CLIParseError(f"a {cls.KIND} needs exactly {count} Gram matrices")
            if p is not None and field is QQ:
                try:
                    gf = GF(p)
                    return cls(*(QuadraticForm._rational_mod(_parse_gram(g), gf)
                                 for g in grams))
                except PreconditionError:
                    pass  # the route over Q raises the first error in order
            return cls(*(QuadraticForm(_parse_gram(g), field) for g in grams))
    raise CLIParseError("system file must contain a 'pencil' or 'net' key")


def load_lattice(path: str | None) -> IntegralLattice:
    """An IntegralLattice from a builtin name or a JSON file; without
    ``path``, the builtin K3 lattice."""
    if path is None or path in _BUILTINS:
        lattice = _builtin(path or "builtin:k3-lattice")
        if not isinstance(lattice, IntegralLattice):
            raise CLIParseError(f"{path} is not a lattice")
        return lattice
    doc = _read_json(path)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise CLIParseError("lattice file must contain a 'gram' key")
    _check_keys(doc, "lattice", ("gram", "label"))
    rows = doc["gram"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise CLIParseError("lattice 'gram' must be an array of row arrays")
    for row in rows:
        for x in row:
            if type(x) is not int:  # JSON true/false and 2.7 are not integers
                raise CLIParseError(f"bad lattice Gram entry {x!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise CLIParseError(f"lattice 'label' must be a string, got {label!r}")
    return IntegralLattice(rows, label=label)


# An integer on argv: an optional "-", then ASCII decimal digits without a
# leading zero; no "+", "_", whitespace or other digits.
_INT = re.compile(r"-?(0|[1-9][0-9]*)")


def _parse_int(text: str) -> int:
    """The ``type`` of every integer flag: ``text`` as an int if it is in
    the grammar of ``_INT`` and within the int-string conversion limit."""
    if _INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # beyond Python's int-string conversion limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_int_list(text: str, what: str):
    """A comma-separated list of integers, each as ``_parse_int`` reads it:
    every item is checked against ``_INT``, then all are converted; the
    empty string is the empty list."""
    parts = text.split(",") if text else []
    if all(map(_INT.fullmatch, parts)):
        try:
            return list(map(int, parts))
        except ValueError:  # beyond Python's int-string conversion limit
            pass
    raise CLIParseError(f"bad {what} list {text!r}")


def _jsonable(x):
    """The JSON value of a report or of a part of one: the one place where
    results become JSON.  Field elements print their residue, rationals an
    int or "num/den", polynomials their text; a cover verdict omits empty
    primes and a missing witness; any other dataclass prints its fields."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, GFElement):
        return x.v
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, MultiPoly):
        return poly_to_text(x)
    if isinstance(x, CoverVerdict):
        out = {"status": x.status}
        if x.primes:
            out["primes"] = list(x.primes)
        if x.witness is not None:
            p, point = x.witness
            out["witness"] = {"p": p, "point": _jsonable(point)}
        return out
    if isinstance(x, DoubleCoverDescriptor):
        return {"base_dim": x.base_dim, "branch": poly_to_text(x.branch),
                "branch_degree": x.branch_degree, "equation": x.equation,
                "verdict": _jsonable(x.verdict)}
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"no JSON form for {x!r}")


def _render(report, fmt: str) -> str:
    """The report as printed.  Every int-to-text conversion of a report is
    in this function, so the only ValueError it raises is an integer beyond
    Python's int-string conversion limit."""
    data = _jsonable(report)
    if fmt == "json":
        return json.dumps(data, sort_keys=True) + "\n"
    return "".join(f"{key} = {json.dumps(data[key], sort_keys=True)}\n"
                   for key in sorted(data))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing leaves no state
    in it).  Its ``leaves`` map each (group, action) to the parser of that
    command's flags."""
    top = _Parser(prog="k3lab", description=__doc__.splitlines()[0])
    top.leaves = {}
    sub = top.add_subparsers(dest="group", required=True)

    groups = {}

    def leaf(group, name, **kw):
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="action", required=True)
        p = top.leaves[group, name] = groups[group].add_parser(name, **kw)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = leaf("mukai", "dim", help="moduli dimension from (r, (L^2), s)")
    p.add_argument("--r", type=_parse_int, required=True)
    p.add_argument("--l2", type=_parse_int, required=True)
    p.add_argument("--s", type=_parse_int, required=True)

    p = leaf("lattice", "overlattice", help="adjoin alpha/r to the alpha-divisibility sublattice")
    p.add_argument("--alpha", required=True, help="comma-separated integer coordinates")
    p.add_argument("--r", type=_parse_int, required=True)
    p.add_argument("--lattice", default=None, help="ambient lattice JSON (default: K3 lattice)")
    p.add_argument("--gram", action="store_true", help="include the resulting Gram matrix")

    for name, hlp in (("disc", "branch quartic of the pencil"),
                      ("jinv", "j-invariant of the double cover"),
                      ("cover", "double-cover descriptor"),
                      ("count", "point counts over F_p")):
        p = leaf("pencil", name, help=hlp)
        p.add_argument("--system", required=True)
        if name == "count":
            p.add_argument("--p", type=_parse_int, required=True,
                           help=f"an odd prime <= {MAX_SWEEP_PRIME} (larger p exits 2)")

    for name, hlp in (("disc", "branch sextic of the net"),
                      ("cover", "double-cover descriptor"),
                      ("probe", "finite-field smoothness probe of the branch")):
        p = leaf("net", name, help=hlp)
        p.add_argument("--system", required=True)
        if name != "disc":
            p.add_argument("--primes", default=None,
                           help=f"comma-separated odd primes <= {MAX_SWEEP_PRIME} "
                                "(larger p exits 2), only p itself over F_p; default: "
                                f"p over F_p, {','.join(map(str, DEFAULT_PROBE_PRIMES))} over Q")

    for name in ("verify-pencil", "verify-net"):
        p = leaf("construct", name, help="sample points and verify T^2 = c*disc(B)")
        p.add_argument("--system", required=True)
        p.add_argument("--p", type=_parse_int, required=True)
        p.add_argument("--samples", type=_parse_int, default=100)
        p.add_argument("--seed", type=_parse_int, default=0)
    p = leaf("construct", "invariance", help="check (B, T) under random unimodular elements")
    p.add_argument("--system", required=True)
    p.add_argument("--p", type=_parse_int, required=True)
    p.add_argument("--count", type=_parse_int, default=20)
    p.add_argument("--seed", type=_parse_int, default=0)

    p = leaf("bn", "dim", help="expected dimension of a section locus")
    p.add_argument("--type", dest="kind", choices=("II", "III"), required=True)
    p.add_argument("--g", type=_parse_int, required=True)
    p.add_argument("--n", type=_parse_int, required=True)

    p = leaf("fano", "section", help="invariants of a linear section")
    p.add_argument("--variety", choices=sorted(HOMOGENEOUS_SPACES), required=True)
    p.add_argument("--cuts", type=_parse_int, required=True)
    p = leaf("fano", "genus", help="genus admissibility and degree")
    p.add_argument("--g", type=_parse_int, required=True)

    p = leaf("pairs", "dims", help="dimensions of the pair and curve moduli")
    p.add_argument("--g", type=_parse_int, required=True)

    return top


def _run(args):
    """The report of one command: a dict or a result dataclass, rendered by
    ``_render``."""
    group, action = args.group, args.action
    if group == "mukai":
        return {"dim": moduli_dim(MukaiVector(args.r, args.l2, args.s))}

    if group == "lattice":
        ambient = load_lattice(args.lattice)
        alpha = _parse_int_list(args.alpha, "alpha")
        out = overlattice(OverlatticeSpec(ambient, alpha, args.r))
        report = {"label": out.label, **lattice_invariants(out)}
        if args.gram:
            report["gram"] = out.gram
        return report

    if group in ("pencil", "net"):
        system = load_system(args.system)
        if system.KIND != group:
            raise PreconditionError(f"{group} subcommands need a {group} system")

    if group == "pencil":
        if action == "disc":
            return {"discriminant": pencil_discriminant(system).to_poly()}
        if action == "jinv":
            return {"j": jacobian_j_invariant(system)}
        if action == "cover":
            return pic2_double_cover(system)
        if action == "count":
            q = system.field.char
            if q and args.p != q:
                raise PreconditionError(
                    f"the system is over GF({q}): --p must be {q}, not {args.p}")
            branch = pencil_discriminant(system)
            n_pencil = count_points(system, args.p)
            n_hyp = count_points(branch, args.p)
            return {"p": args.p, "pencil_points": n_pencil,
                    "hyperelliptic_points": n_hyp,
                    "twist_consistent": n_pencil in (n_hyp, 2 * args.p + 2 - n_hyp)}

    if group == "net":
        if action == "disc":
            d = net_discriminant(system)
            return {"discriminant": d, "degree": d.degree()}
        q = system.field.char
        if args.primes is None:
            primes = (q,) if q else DEFAULT_PROBE_PRIMES
        else:
            primes = tuple(_parse_int_list(args.primes, "primes"))
            if q and set(primes) - {q}:
                raise PreconditionError(f"the system is over GF({q}): --primes may "
                                        f"list only {q}, not {args.primes}")
        if action == "probe":
            return net_smoothness_probe(system, primes)
        return moduli_double_cover(system, primes)

    if group == "construct":
        system = load_system(args.system, args.p)
        if action in ("verify-pencil", "verify-net"):
            if action != f"verify-{system.KIND}":
                raise PreconditionError(f"{action} got the wrong kind of system")
            report = verify_relation(system, args.p, args.samples, args.seed)
            if report.failed:
                raise _VerificationExit(report)
            return report
        if action == "invariance":
            return _invariance_report(system, args.p, args.count, args.seed)

    if group == "bn":
        fn = type_ii_expected_dim if args.kind == "II" else type_iii_expected_dim
        return {"dim": fn(args.g, args.n), "type": args.kind,
                "basis": EXPECTED_DIM_BASIS}

    if group == "fano":
        if action == "section":
            return linear_section_invariants(args.variety, args.cuts)
        if action == "genus":
            return {"allowed": fano_genus_allowed(args.g), "degree": fano_degree(args.g)}

    if group == "pairs":
        dim_p, dim_m = pairs_moduli_dims(args.g)
        return {"dimP": dim_p, "dimM": dim_m}

    raise CLIParseError(f"unknown command {group} {action}")  # unreachable


def _invariance_report(system, p, count, seed):
    if count < 1:
        raise PreconditionError("invariance needs a count of at least 1")
    point = sample_point(system, p, seed)
    model = matrix_model(point.matrix, "invariance")
    field = GF(p)
    rng = random.Random(seed)
    b_ok = t_ok = True
    for _ in range(count):
        elements = [random_sl(field, model.size, rng) for _ in range(1 if model.pf else 2)]
        rep = group_invariance_check(point.matrix, point.system, *elements)
        b_ok = b_ok and rep.b_equal
        t_ok = t_ok and rep.t_equal
    out = {"case": system.KIND, "p": p, "seed": seed,
           "checked": count, "b_invariant": b_ok, "t_invariant": t_ok}
    if not (b_ok and t_ok):
        raise _VerificationExit(out)
    return out


class _VerificationExit(Exception):
    """Carries a report that must be printed before exiting with code 3."""

    def __init__(self, report):
        super().__init__("verification failed")
        self.report = report


def _parse_argv(argv):
    """The Namespace of ``argv``, as ``build_parser().parse_args(argv)``
    gives it.  When the first two tokens name a command, the rest goes
    straight to that command's parser, which gives the same Namespace (or
    the same CLIParseError); anything else (help, a misspelt group or
    action) goes through the whole tree."""
    parser = build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    if leaf is None:
        return parser.parse_args(argv)
    args = leaf.parse_args(argv[2:])
    args.group, args.action = argv[:2]
    return args


def main(argv=None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``) and return its
    exit code.  The flags are parsed by ``_parse_argv``, which skips the
    tree of subcommands when the first two tokens name a command."""
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except CLIParseError as exc:
        sys.stderr.write(f"k3lab: parse error: {exc}\n")
        return 1
    fmt = getattr(args, "format", "json")
    try:
        report = _run(args)
    except CLIParseError as exc:
        sys.stderr.write(f"k3lab: parse error: {exc}\n")
        return 1
    except _VerificationExit as exc:
        sys.stdout.write(_render(exc.report, fmt))
        sys.stderr.write("k3lab: verification failed\n")
        return 3
    except VerificationFailure as exc:
        sys.stderr.write(f"k3lab: verification failed: {exc}\n")
        return 3
    except K3LabError as exc:
        sys.stderr.write(f"k3lab: {exc}\n")
        return 2
    try:
        text = _render(report, fmt)
    except ValueError:  # an integer beyond Python's int-string conversion limit
        sys.stderr.write("k3lab: result too large to print: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits\n")
        return 2
    sys.stdout.write(text)
    return 0


def main_entry() -> None:
    sys.exit(main())
