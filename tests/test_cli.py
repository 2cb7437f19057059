import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from k3lab import GF, QQ, lattices
from k3lab import cli
from k3lab.cli import CLIParseError, build_parser, main
import commands
from oracles import fraction_invariants, seeded_overlattice_alphas

ALPHA_OK = ",".join(["1", "4"] + ["0"] * 20)
ALPHA_BAD = ",".join(["1", "1"] + ["0"] * 20)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bn_dim_reference(capsys):
    data = run_json(capsys, "bn", "dim", "--type", "III", "--g", "11", "--n", "7")
    assert data["dim"] == 2
    assert data["basis"] == "expected (heuristic)"
    data = run_json(capsys, "bn", "dim", "--type", "II", "--g", "3", "--n", "3")
    assert data["dim"] == 3


def test_pencil_subcommands(capsys):
    d = run_json(capsys, "pencil", "disc", "--system", "builtin:pencil-diagonal")
    assert d["discriminant"] == "x0^4 + 6*x0^3*x1 + 11*x0^2*x1^2 + 6*x0*x1^3"
    j = run_json(capsys, "pencil", "jinv", "--system", "builtin:pencil-diagonal")
    assert j["j"] == "35152/9"
    cover = run_json(capsys, "pencil", "cover", "--system", "builtin:pencil-diagonal")
    assert cover["verdict"]["status"] == "smooth" and cover["branch_degree"] == 4
    count = run_json(capsys, "pencil", "count", "--system",
                     "builtin:pencil-diagonal", "--p", "5")
    assert count["twist_consistent"] is True
    assert count["pencil_points"] in (count["hyperelliptic_points"],
                                      12 - count["hyperelliptic_points"])


def test_net_subcommands(capsys):
    d = run_json(capsys, "net", "disc", "--system", "builtin:net-diagonal")
    assert d["degree"] == 6
    probe = run_json(capsys, "net", "probe", "--system", "builtin:net-diagonal",
                     "--primes", "7")
    assert probe["status"] == "singular" and probe["witness"]["p"] == 7
    cover = run_json(capsys, "net", "cover", "--system", "builtin:net-diagonal")
    assert cover["verdict"]["status"] == "singular"


def test_pencil_count_builds_one_branch_and_evaluates_it_once(capsys, monkeypatch):
    # one op builds the branch quartic once (cli and count_points(pencil) share
    # the pencil's memo) and evaluates its invariants once (both counts check
    # its discriminant mod p); the builtin pencil keeps both for the next op
    from k3lab import cli
    from k3lab.quartic import BinaryQuartic

    built, evaluated = [], []
    init, invariants = BinaryQuartic.__init__, BinaryQuartic._lifted_invariants

    def counting_init(self, *a, **kw):
        built.append(a)
        init(self, *a, **kw)

    def counting_invariants(self):
        if getattr(self, "_invariants", None) is None:
            evaluated.append(self)
        return invariants(self)

    monkeypatch.setattr(BinaryQuartic, "__init__", counting_init)
    monkeypatch.setattr(BinaryQuartic, "_lifted_invariants", counting_invariants)
    cli._builtin.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "pencil", "count", "--system", "builtin:pencil-diagonal",
                           "--p", "101")
        assert code == 0
        assert out == ('{"hyperelliptic_points": 120, "p": 101, "pencil_points": 120, '
                       '"twist_consistent": true}\n')
        assert (len(built), len(evaluated)) == (1, 1)


FRACTIONAL_NET = str(Path(__file__).parent / "data" / "net-fractional.json")


NET_DIAGONAL_BRANCH = (
    "x0^6 + 15*x0^5*x1 + 55*x0^5*x2 + 85*x0^4*x1^2 + 600*x0^4*x1*x2 + "
    "1023*x0^4*x2^2 + 225*x0^3*x1^3 + 2279*x0^3*x1^2*x2 + 7395*x0^3*x1*x2^2 + "
    "7645*x0^3*x2^3 + 274*x0^2*x1^4 + 3510*x0^2*x1^3*x2 + 16090*x0^2*x1^2*x2^2 + "
    "31050*x0^2*x1*x2^3 + 21076*x0^2*x2^4 + 120*x0*x1^5 + 1800*x0*x1^4*x2 + "
    "10200*x0*x1^3*x2^2 + 27000*x0*x1^2*x2^3 + 32880*x0*x1*x2^4 + 14400*x0*x2^5")


# the document of builtin:pencil-diagonal
PENCIL_DIAGONAL = {"field": "Q", "pencil": [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]]}

FRACTIONAL_PENCIL = {"pencil": [
    [["1/3", 0, "1/2", 0], [0, "-5/4", 0, 1], ["1/2", 0, 2, 0], [0, 1, 0, "7/2"]],
    [[1, "2/3", 0, 0], ["2/3", 0, 0, "1/2"], [0, 0, "-5/4", 1], [0, "1/2", 1, 3]]]}


def test_branch_commands_read_the_packed_determinant(tmp_path, capsys, monkeypatch):
    # the pencil commands read the branch quartic, and net probe the branch
    # sextic, off the packed determinant: no det_poly and no boxed expansion
    # (disc and cover print the quartic from its coefficients)
    from k3lab import polymat
    from k3lab.polymat import LinearMatrix

    path = tmp_path / "pencil-fractional.json"
    path.write_text(json.dumps(FRACTIONAL_PENCIL), encoding="utf-8")
    calls = []
    box_terms, det_poly = polymat._box_terms, LinearMatrix.det_poly
    monkeypatch.setattr(polymat, "_box_terms",
                        lambda *a: calls.append("_box_terms") or box_terms(*a))
    monkeypatch.setattr(LinearMatrix, "det_poly",
                        lambda self: calls.append("det_poly") or det_poly(self))
    argvs = [("pencil", action, "--system", system, *extra)
             for system in ("builtin:pencil-diagonal", str(path))
             for action, *extra in (("disc",), ("jinv",), ("cover",), ("count", "--p", "7"))]
    argvs.append(("net", "probe", "--system", "builtin:net-diagonal", "--primes", "7"))
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert (code, err, calls) == (0, "", []), argv


def test_net_probe_boxes_no_polynomial(capsys, monkeypatch):
    # `net probe` reads its plane rows off the packed determinant; `net disc`
    # and `net cover` print the sextic, so they still box it, with the bytes
    # they had when the probe boxed it too
    from k3lab import cli, polymat

    boxed = []
    real = polymat._box_terms
    monkeypatch.setattr(polymat, "_box_terms", lambda *a: boxed.append(a) or real(*a))
    net_disc = run_json(capsys, "net", "disc", "--system", FRACTIONAL_NET)["discriminant"]
    assert len(boxed) == 1
    probes = [
        (("net", "probe", "--system", "builtin:net-diagonal", "--primes", "43"),
         '{"primes": [43], "status": "singular", '
         '"witness": {"p": 43, "point": [1, 31, 11]}}\n'),
        (("net", "probe", "--system", FRACTIONAL_NET, "--primes", "7,11,13,1009"),
         '{"primes": [7, 11, 13, 1009], "status": "probably-smooth"}\n'),
    ]
    for argv, want in probes:
        del boxed[:]
        assert run(capsys, *argv) == (0, want, "")
        assert boxed == []
    # the error path names the coefficient without boxing the sextic either
    assert run(capsys, "net", "probe", "--system", FRACTIONAL_NET, "--primes", "3,5") == (
        2, "", "k3lab: denominator of -106351/38400 vanishes mod 3\n")
    assert boxed == []
    covers = [
        (("net", "disc", "--system", "builtin:net-diagonal"),
         '{"degree": 6, "discriminant": "%s"}\n' % NET_DIAGONAL_BRANCH),
        (("net", "cover", "--system", "builtin:net-diagonal", "--primes", "1009"),
         '{"base_dim": 2, "branch": "%s", "branch_degree": 6, "equation": '
         '"tau^2 = %s", "verdict": {"primes": [1009], "status": "singular", '
         '"witness": {"p": 1009, "point": [1, 302, 101]}}}\n'
         % (NET_DIAGONAL_BRANCH, NET_DIAGONAL_BRANCH)),
        (("net", "cover", "--system", FRACTIONAL_NET, "--primes", "1009"),
         '{"base_dim": 2, "branch": "%s", "branch_degree": 6, "equation": '
         '"tau^2 = %s", "verdict": {"primes": [1009], "status": "probably-smooth"}}\n'
         % (net_disc, net_disc)),
    ]
    for argv, want in covers:
        del boxed[:]
        cli._builtin.cache_clear()  # the builtin net memoizes its sextic
        assert run(capsys, *argv) == (0, want, "")
        assert len(boxed) == 1


def test_net_probe_and_cover_on_a_vanishing_discriminant(tmp_path, capsys):
    # three coordinate squares: every member has rank <= 3.  Both actions
    # refuse the net before they look at the primes; `net disc` prints 0
    squares = [[[int(i == j == k) for j in range(6)] for i in range(6)] for k in range(3)]
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps({"net": squares}))
    for argv in (("probe",), ("cover",), ("probe", "--primes", "9"), ("cover", "--primes", "9")):
        assert run(capsys, "net", *argv, "--system", str(path)) == (
            2, "", "k3lab: net discriminant vanishes identically\n")
    assert run(capsys, "net", "disc", "--system", str(path)) == (
        0, '{"degree": -1, "discriminant": "0"}\n', "")


def test_pencil_count_builds_only_the_loaded_system(capsys, monkeypatch):
    # the sweep reads each form's Gram rows mod p; the one system built is
    # the one `load_system` read, and none when the builtin is built already
    from k3lab import cli
    from k3lab.systems import QuadricSystem

    built = []
    init = QuadricSystem.__init__

    def counting_init(self, *forms):
        built.append(type(self).__name__)
        init(self, *forms)

    monkeypatch.setattr(QuadricSystem, "__init__", counting_init)
    cli._builtin.cache_clear()
    for p, want, systems in ((23, 32, ["PencilOfQuadrics"]), (101, 120, [])):
        del built[:]
        out = run_json(capsys, "pencil", "count", "--system", "builtin:pencil-diagonal",
                       "--p", str(p))
        assert out["pencil_points"] == want
        assert built == systems


def test_probe_and_cover_default_primes(tmp_path, capsys):
    # over Q the default is DEFAULT_PROBE_PRIMES, with the bytes of an explicit
    # --primes 7,11,13 (taken before the default followed the field)
    goldens = [
        (("net", "probe", "--system", "builtin:net-diagonal"),
         '{"primes": [7, 11, 13], "status": "singular", '
         '"witness": {"p": 7, "point": [1, 1, 1]}}\n'),
        (("net", "cover", "--system", "builtin:net-diagonal"),
         '{"base_dim": 2, "branch": "%s", "branch_degree": 6, "equation": '
         '"tau^2 = %s", "verdict": {"primes": [7, 11, 13], "status": "singular", '
         '"witness": {"p": 7, "point": [1, 1, 1]}}}\n'
         % (NET_DIAGONAL_BRANCH, NET_DIAGONAL_BRANCH)),
        (("net", "probe", "--system", FRACTIONAL_NET),
         '{"primes": [7, 11, 13], "status": "probably-smooth"}\n'),
    ]
    for argv, want in goldens:
        assert run(capsys, *argv) == (0, want, "")
        assert run(capsys, *argv, "--primes", "7,11,13") == (0, want, "")
    # over F_q the default is the system's own prime (the Q default exited 2
    # with "element of GF(11) used in GF(7)")
    doc = json.loads((Path(__file__).parents[1] / "src" / "k3lab" / "data"
                      / "net-diagonal.json").read_text())
    doc["field"] = "F11"
    path = tmp_path / "net11.json"
    path.write_text(json.dumps(doc))
    for action in ("probe", "cover"):
        code, out, err = run(capsys, "net", action, "--system", str(path))
        assert code == 0, err
        verdict = json.loads(out) if action == "probe" else json.loads(out)["verdict"]
        assert verdict["primes"] == [11]
        assert run(capsys, "net", action, "--system", str(path), "--primes", "11") == (0, out, "")
        # any other listed prime is refused, naming the flag and the field
        for primes in ("7", "11,13"):
            assert run(capsys, "net", action, "--system", str(path), "--primes", primes) == (
                2, "", "k3lab: the system is over GF(11): --primes may list only 11, "
                       f"not {primes}\n")
    # the bytes of --primes 11, taken before other primes were refused
    assert run(capsys, "net", "probe", "--system", str(path), "--primes", "11") == (
        0, '{"primes": [11], "status": "singular", "witness": {"p": 11, "point": [1, 4, 1]}}\n',
        "")


def test_construct_verify_goldens(capsys):
    rep = run_json(capsys, "construct", "verify-pencil", "--system",
                   "builtin:pencil-diagonal", "--p", "11", "--samples", "10",
                   "--seed", "0")
    assert rep == {"c": 5, "case": "pencil", "failed": [], "p": 11,
                   "passed": 10, "samples": 10, "seed": 0}
    rep = run_json(capsys, "construct", "verify-net", "--system",
                   "builtin:net-diagonal", "--p", "11", "--samples", "5",
                   "--seed", "0")
    assert rep["c"] == 2 and rep["passed"] == 5 and rep["failed"] == []


def test_construct_invariance(capsys):
    rep = run_json(capsys, "construct", "invariance", "--system",
                   "builtin:net-diagonal", "--p", "7", "--count", "4",
                   "--seed", "2")
    assert rep["b_invariant"] is True and rep["t_invariant"] is True


def test_construct_invariance_rejects_counts_below_one(capsys):
    # a pass with no checks would report both invariants true
    for count in ("0", "-3"):
        code, out, err = run(capsys, "construct", "invariance", "--system",
                             "builtin:net-diagonal", "--p", "7", "--count", count)
        assert code == 2 and out == "" and "count" in err


def test_lattice_overlattice(capsys):
    rep = run_json(capsys, "lattice", "overlattice", "--alpha", ALPHA_OK,
                   "--r", "2")
    assert rep["rank"] == 22 and rep["det"] == -1 and rep["even"] is True
    assert rep["signature"] == [3, 19]
    assert "gram" not in rep
    rep = run_json(capsys, "lattice", "overlattice", "--alpha", ALPHA_OK,
                   "--r", "2", "--gram")
    assert len(rep["gram"]) == 22


def test_lattice_overlattice_command_skips_generic_hnf(capsys, monkeypatch):
    # the command reduces its stack by lattices._stack_hnf; the generic
    # Hermite reduction is only its oracle
    def refuse(rows):
        raise AssertionError("hnf_row_basis on the command path")

    monkeypatch.setattr(lattices, "hnf_row_basis", refuse)
    cases = [case for case in commands.load() if case["argv"][:2] == ["lattice", "overlattice"]]
    assert len(cases) >= 16
    for case in cases:
        assert commands.mismatches(case, commands.run_in_process(main, case)) == []


@pytest.mark.parametrize("r, size", [(2, 1), (3, 1), (2, 3), (3, 3)])
def test_lattice_overlattice_det_and_signature_match_the_printed_gram(capsys, r, size):
    # the printed det and signature come from the ambient and the index; an
    # independent elimination of the printed Gram must give the same, on the
    # overlattice benchmark's four classes of ops
    alphas = seeded_overlattice_alphas(r, size)
    assert len(alphas) == 20
    for alpha in alphas:
        rep = run_json(capsys, "lattice", "overlattice", "--alpha=" + ",".join(map(str, alpha)),
                       "--r", str(r), "--gram")
        det, sig = fraction_invariants(rep["gram"])
        assert (rep["det"], rep["signature"]) == (det, list(sig)), alpha


def test_lattice_overlattice_eliminates_once_per_ambient(capsys, monkeypatch):
    # det and signature of an overlattice are the ambient's, scaled by the
    # index: one elimination per ambient lattice, none per overlattice
    calls = []
    eliminate = lattices._det_and_signature

    def counting(gram):
        calls.append(len(gram))
        return eliminate(gram)

    monkeypatch.setattr(lattices, "_det_and_signature", counting)
    alphas = seeded_overlattice_alphas(2, 3, count=50)
    k3 = lattices.k3_lattice()
    for alpha in alphas:
        out = lattices.overlattice(lattices.OverlatticeSpec(k3, alpha, 2))
        assert (out.det, out.signature()) == (-1, (3, 19))
    assert calls == [22]
    for flags in ((), ("--lattice", "builtin:k3-lattice")):
        calls.clear()
        for alpha in alphas:  # the builtin K3 lattice, built once per process
            rep = run_json(capsys, "lattice", "overlattice", *flags,
                           "--alpha=" + ",".join(map(str, alpha)), "--r", "2")
            assert (rep["det"], rep["signature"]) == (-1, [3, 19])
        assert len(calls) <= 1


def test_fano_and_pairs(capsys):
    row = run_json(capsys, "fano", "section", "--variety", "spinor10",
                   "--cuts", "7")
    assert row == {"classification": "Fano 3-fold", "degree": 12, "dim": 3,
                   "genus": 7, "index": 1}
    gen = run_json(capsys, "fano", "genus", "--g", "11")
    assert gen == {"allowed": False, "degree": 20}
    dims = run_json(capsys, "pairs", "dims", "--g", "10")
    assert dims == {"dimM": 27, "dimP": 29}


def test_determinism_byte_identical(capsys):
    argv = ("construct", "verify-pencil", "--system", "builtin:pencil-diagonal",
            "--p", "13", "--samples", "6", "--seed", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first.encode() == second.encode()


def test_repeated_in_process_calls_match_first_calls(capsys):
    calls = [
        ("mukai", "dim", "--r", "2", "--l2", "8", "--s", "2"),
        ("lattice", "overlattice", "--alpha", ALPHA_OK, "--r", "2", "--format", "text"),
        ("mukai", "dim", "--r", "x", "--l2", "8", "--s", "2"),
        ("pencil", "disc", "--system", "builtin:pencil-diagonal"),
        ("bn", "dim", "--type", "II", "--g", "3", "--n", "3", "--format", "text"),
        ("lattice", "overlattice", "--alpha", ALPHA_BAD, "--r", "2"),
        ("fano", "genus", "--g", "11"),
    ]
    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [0, 0, 1, 0, 0, 2, 0]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == first


def test_text_format_same_data(capsys):
    _, as_json, _ = run(capsys, "mukai", "dim", "--r", "2", "--l2", "8", "--s", "2")
    _, as_text, _ = run(capsys, "mukai", "dim", "--r", "2", "--l2", "8", "--s", "2",
                        "--format", "text")
    assert json.loads(as_json) == {"dim": 2}
    assert as_text == "dim = 2\n"


def _failing_verify(system, p, count, seed):
    """A verify_relation whose first sample falsifies the relation."""
    from k3lab import RelationReport

    one = GF(11).one
    return RelationReport(case="pencil", p=p, samples=count, seed=seed,
                          c=one, passed=count - 1,
                          failed=({"index": 0, "base_point": (one, one),
                                   "t": one, "disc_b": one},))


@pytest.mark.parametrize("argv, expected", [
    (("construct", "verify-pencil", "--system", "builtin:pencil-diagonal", "--p", "11",
      "--samples", "4", "--seed", "0"),
     (3, 'c = 1\ncase = "pencil"\nfailed = [{"base_point": [1, 1], "disc_b": 1, '
         '"index": 0, "t": 1}]\np = 11\npassed = 3\nsamples = 4\nseed = 0\n',
      "k3lab: verification failed\n")),
], ids=["verify-failing"])
def test_text_format_golden_bytes(capsys, monkeypatch, argv, expected):
    # the text rendering of a failed verification's report, with its nested
    # list of failed samples; the text-* cases of data/commands.json render
    # the other kinds of report
    monkeypatch.setattr(cli, "verify_relation", _failing_verify)
    assert run(capsys, *argv, "--format", "text") == expected


def test_exit_code_parse_error_flags(capsys):
    code, _, err = run(capsys, "mukai", "dim", "--r", "x", "--l2", "8", "--s", "2")
    assert code == 1 and "parse error" in err
    # only probe and cover take --primes
    assert run(capsys, "net", "disc", "--system", "builtin:net-diagonal", "--primes", "3") == (
        1, "", "k3lab: parse error: unrecognized arguments: --primes 3\n")


def _parsed(parse, argv, capsys):
    """What ``parse(argv)`` gives: its Namespace, its CLIParseError's
    message, or the exit code and output of help."""
    try:
        return "namespace", vars(parse(argv))
    except CLIParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        out = capsys.readouterr()
        return "exit", exc.code, out.out, out.err


def _leaf_argvs(argv):
    """The dispatch table of one command: its README argv, an unknown flag,
    missing required flags, each int value made bad, both formats, an
    abbreviated flag and ``--`` tokens."""
    head, rest = argv[:2], argv[2:]
    first = next(i for i, token in enumerate(rest) if token.startswith("--"))
    table = [argv, argv + ["--bogus", "1"], head, head + rest[first + 2:],
             argv + ["--format", "text"], argv + ["--format", "xml"],
             argv + ["--sam", "4"], head + [rest[first][:-1]] + rest[first + 1:],
             argv + ["--"], argv + ["--", "x"], head + ["--"] + rest, argv + ["-h"]]
    table += [head + rest[:i] + ["1_0"] + rest[i + 1:]
              for i, token in enumerate(rest) if re.fullmatch(r"-?[0-9]+", token)]
    return table


def test_leaf_dispatch_parses_as_the_tree(capsys):
    # argv whose first two tokens name a command go straight to its parser,
    # which must give the tree's Namespace (group and action included) or
    # its error message
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    examples = {}
    for line in readme.splitlines():
        if line.startswith("k3lab "):
            argv = shlex.split(line)[1:]
            examples.setdefault(tuple(argv[:2]), argv)
    parser = build_parser()
    assert set(parser.leaves) == set(examples) and len(examples) == 16
    kinds = set()
    for key, example in examples.items():
        assert parser.leaves[key].prog == "k3lab " + " ".join(key)
        for argv in _leaf_argvs(example):
            got = _parsed(cli._parse_argv, argv, capsys)
            assert got == _parsed(parser.parse_args, argv, capsys), argv
            kinds.add(got[0])
            if got[0] == "namespace":
                assert (got[1]["group"], got[1]["action"]) == key
    assert kinds == {"namespace", "error", "exit"}


def test_tree_argv_keep_their_output(capsys):
    # argv that name no command (none, a group alone, a misspelt action,
    # help) go through the whole tree
    parser = build_parser()
    for argv, want in (([], "the following arguments are required: group"),
                       (["construct"], "the following arguments are required: action"),
                       (["construct", "verify-pencl"],
                        "argument action: invalid choice: 'verify-pencl'")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith(f"k3lab: parse error: {want}")
        with pytest.raises(CLIParseError) as exc:
            parser.parse_args(argv)
        assert err == f"k3lab: parse error: {exc.value}\n"
    for argv in (["-h"], ["construct", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: k3lab ")


def test_exit_code_parse_error_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pencil": [\n  broken\n]}')
    code, _, err = run(capsys, "pencil", "disc", "--system", str(bad))
    assert code == 1
    assert "line 2" in err and "column" in err


def test_exit_code_parse_error_boolean_gram_entries(tmp_path, capsys):
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    for flag in (True, False):
        doc = {"field": "Q", "pencil": [eye, [[flag] * 4 for _ in range(4)]]}
        path = tmp_path / f"bool-{flag}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pencil", "disc", "--system", str(path))
        assert code == 1 and out == "" and "bad Gram entry" in err


def test_exit_code_parse_error_malformed_system_files(tmp_path, capsys):
    # bad entry strings, a zero denominator and pencils or nets that are not
    # arrays of Gram matrices are parse errors, reported without a traceback
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    bad = [[row[:] for row in eye] for _ in range(3)]
    bad[0][1][2] = bad[0][2][1] = "abc"
    bad[1][0][0] = "1/0"
    bad[2][3][3] = "1/2/3"
    docs = [{"pencil": [eye, g]} for g in bad] + [
        {"pencil": 5}, {"pencil": [5, 6]}, {"pencil": "ab"}, {"pencil": [eye, 7]},
        {"pencil": [eye, [1, 2, 3, 4]]}, {"pencil": [eye, [[[1]] * 4] * 4]},
        {"pencil": [eye, [[1.5] * 4] * 4]}, {"pencil": [eye, [[None] * 4] * 4]},
        {"net": 5}, {"net": {"a": 1}}, {"net": [5, 6, 7]}, {"pencil": {"q1": eye}}]
    texts = [json.dumps(doc) for doc in docs]
    # an integer longer than Python's int-string conversion limit
    texts.append('{"pencil": [%s, [[%s]]]}' % (json.dumps(eye), "7" * 5000))
    for i, text in enumerate(texts):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(text)
        code, out, err = run(capsys, "pencil", "disc", "--system", str(path))
        assert code == 1 and out == "", text[:80]
        assert err.startswith("k3lab: parse error: ") and "Traceback" not in err, text[:80]
    path = tmp_path / "long-int-lattice.json"
    path.write_text('{"gram": [[%s]]}' % ("2" * 5000))
    code, out, err = run(capsys, "lattice", "overlattice", "--alpha", "1", "--r", "2",
                         "--lattice", str(path))
    assert code == 1 and out == "" and err.startswith("k3lab: parse error: ")


def test_exit_code_parse_error_deeply_nested_json(tmp_path, capsys):
    # json.loads raises RecursionError on nesting this deep
    depth = 10**5
    system = tmp_path / "deep-system.json"
    system.write_text('{"pencil": ' + "[" * depth + "]" * depth + "}")
    lattice = tmp_path / "deep-lattice.json"
    lattice.write_text("[" * depth + "]" * depth)
    for argv, path in ((("pencil", "disc", "--system"), system),
                       (("lattice", "overlattice", "--alpha", "1", "--r", "2", "--lattice"),
                        lattice)):
        assert run(capsys, *argv, str(path)) == (
            1, "", f"k3lab: parse error: {path}: JSON nested too deeply\n")


def test_exit_code_parse_error_system_not_an_object(tmp_path, capsys):
    for i, doc in enumerate(([1, 2], "pencil", 3, None)):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pencil", "disc", "--system", str(path))
        assert code == 1 and out == "" and "parse error" in err
        assert "Traceback" not in err and "JSON object" in err


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "mukai", "dim", "--r", "2", "--l2", "7", "--s", "2")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "lattice", "overlattice", "--alpha", ALPHA_BAD,
                       "--r", "2")
    assert code == 2 and "divisible" in err


def test_exit_code_sweep_prime_above_the_limit(capsys):
    from k3lab.systems import MAX_SWEEP_PRIME

    above = "4099"  # the first prime above MAX_SWEEP_PRIME = 4093
    assert MAX_SWEEP_PRIME == 4093
    for argv in (("pencil", "count", "--system", "builtin:pencil-diagonal", "--p", above),
                 ("net", "probe", "--system", "builtin:net-diagonal", "--primes", "7," + above),
                 ("net", "cover", "--system", "builtin:net-diagonal", "--primes", above)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "4093" in err


def test_exit_code_empty_prime_list(capsys):
    # "," is two empty items, a parse error (test_integer_flags_are_canonical)
    for action in ("probe", "cover"):
        code, out, err = run(capsys, "net", action, "--system", "builtin:net-diagonal",
                             "--primes", "")
        assert (code, out, err) == (2, "", "k3lab: the probe needs at least one prime\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-string conversion limit")
def test_exit_code_result_too_large_to_print(tmp_path, capsys):
    # inputs within the limit whose results are beyond it
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    diag = [[(i + 1) * (i == j) for j in range(4)] for i in range(4)]
    big_exponent = [row[:] for row in diag]
    big_exponent[0][0] = "1e10000"
    path = tmp_path / "big-exponent.json"
    path.write_text(json.dumps({"pencil": [eye, big_exponent]}))
    long_int = tmp_path / "long-int.json"
    long_int.write_text(json.dumps({"pencil": [eye, diag]}).replace(
        "[[1, 0, 0, 0], [0, 2", "[[%s, 0, 0, 0], [0, 2" % ("7" * 4000)))
    assert json.loads(long_int.read_text())["pencil"][1][0][0] == int("7" * 4000)
    for argv in (("pencil", "disc", "--system", str(path)),
                 ("pencil", "cover", "--system", str(path)),
                 ("pencil", "jinv", "--system", str(long_int))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("k3lab: result too large to print: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits\n"), argv
    # the same long entry prints when every integer of the result stays within the limit
    code, out, _ = run(capsys, "pencil", "disc", "--system", str(long_int))
    assert code == 0 and len(out) > 4000


def test_exit_code_bad_prime_is_not_a_bad_reduction(tmp_path, capsys):
    # an invalid p is reported as such, before any reduction
    for p in ("2", "15"):
        code, out, err = run(capsys, "construct", "verify-net", "--system",
                             "builtin:net-diagonal", "--p", p)
        assert (code, out) == (2, "")
        assert err == f"k3lab: {p} is not an odd prime below 2**31\n"
    # a denominator that vanishes mod p is a bad reduction
    doc = {"field": "Q", "pencil": [
        [["1/3", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]]}
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "construct", "verify-pencil", "--system", str(path),
                         "--p", "3")
    assert (code, out) == (2, "")
    assert err == "k3lab: pencil has bad reduction mod 3: denominator of 1/3 vanishes mod 3\n"


def _diag(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


def test_exit_code_wrong_system_kind(tmp_path, capsys):
    # exact texts, taken before one QuadricSystem base named the case
    docs = {
        "pencil3": {"pencil": [_diag(1, 2, 3, 4), _diag(1, 1, 1, 1), _diag(0, 1, 2, 3)]},
        "net2": {"net": [_diag(1, 2, 3, 4, 5, 6), _diag(1, 1, 1, 1, 1, 1)]},
        "pencil5": {"pencil": [_diag(1, 1, 1, 1), _diag(1, 1, 1, 6)]},
        "net5": {"net": [_diag(1, 1, 1, 1, 1, 1), _diag(1, 1, 1, 1, 1, 6),
                         _diag(0, 1, 2, 3, 4, 5)]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = lambda name: str(tmp_path / f"{name}.json")
    pencil, net = "builtin:pencil-diagonal", "builtin:net-diagonal"
    dependent = "Gram matrices are linearly dependent (identically-proportional members)"
    cases = [
        (("pencil", "disc", "--system", net), 2, "pencil subcommands need a pencil system"),
        (("pencil", "count", "--system", net, "--p", "5"), 2,
         "pencil subcommands need a pencil system"),
        (("net", "disc", "--system", pencil), 2, "net subcommands need a net system"),
        (("net", "probe", "--system", pencil), 2, "net subcommands need a net system"),
        (("construct", "verify-pencil", "--system", net, "--p", "11"), 2,
         "verify-pencil got the wrong kind of system"),
        (("construct", "verify-net", "--system", pencil, "--p", "11"), 2,
         "verify-net got the wrong kind of system"),
        (("pencil", "disc", "--system", path("pencil3")), 1,
         "parse error: a pencil needs exactly two Gram matrices"),
        (("net", "disc", "--system", path("net2")), 1,
         "parse error: a net needs exactly three Gram matrices"),
        (("construct", "verify-pencil", "--system", path("pencil5"), "--p", "5"), 2,
         f"pencil has bad reduction mod 5: pencil: {dependent}"),
        (("construct", "verify-net", "--system", path("net5"), "--p", "5"), 2,
         f"net has bad reduction mod 5: net: {dependent}"),
        (("construct", "invariance", "--system", FRACTIONAL_NET, "--p", "3"), 2,
         "net has bad reduction mod 3: denominator of -1/6 vanishes mod 3"),
    ]
    for argv, code, err in cases:
        assert run(capsys, *argv) == (code, "", f"k3lab: {err}\n"), argv


def test_construct_errors_on_several_faults_come_in_order(tmp_path, capsys):
    # texts and order as they were when every construct op built its system
    # over Q first: the system's own errors, then the wrong kind, then the
    # samples or count, then BadPrime, then BadReduction
    docs = {
        "dependent": {"pencil": [_diag(1, 2, 3, 4), _diag(2, 4, 6, 8)]},
        "valid": {"pencil": [_diag(1, 2, 3, 4), _diag(0, 1, 2, 3)]},
        "third": {"pencil": [[["1/3", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                             _diag(0, 1, 2, 3)]},
        "third-dependent": {"pencil": [
            [["1/3", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [["2/3", 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]]},
        # [[1, 8], [1, 1]] is symmetric mod 7, not over Q
        "asymmetric": {"pencil": [[[1, 8, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                  _diag(0, 1, 2, 3)]},
        "asymmetric-then-unparsable": {"pencil": [
            [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[True]]]},
        "five": {"pencil": [_diag(1, 2, 3, 4, 5), _diag(0, 1, 2, 3, 4)]},
        "dependent-mod-7": {"pencil": [_diag(1, 2, 3, 4), _diag(8, 9, 10, 11)]},
        "f7": {"field": "F7", "pencil": [_diag(1, 2, 3, 4), _diag(0, 1, 2, 3)]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    dependent = "pencil: Gram matrices are linearly dependent (identically-proportional members)"
    cases = [
        ("verify-net", "dependent", ("--p", "7"), dependent),
        ("verify-net", "dependent", ("--p", "15"), dependent),
        ("verify-pencil", "dependent", ("--p", "15"), dependent),
        ("verify-pencil", "dependent", ("--p", "7", "--samples", "1"), dependent),
        ("invariance", "dependent", ("--p", "7", "--count", "0"), dependent),
        ("verify-net", "valid", ("--p", "15"), "verify-net got the wrong kind of system"),
        ("verify-pencil", "valid", ("--p", "15", "--samples", "1"),
         "need at least two samples to cross-check the constant"),
        ("invariance", "valid", ("--p", "15", "--count", "0"),
         "invariance needs a count of at least 1"),
        ("verify-pencil", "valid", ("--p", "15"), "15 is not an odd prime below 2**31"),
        ("verify-pencil", "third", ("--p", "3"),
         "pencil has bad reduction mod 3: denominator of 1/3 vanishes mod 3"),
        ("verify-pencil", "third", ("--p", "15"), "15 is not an odd prime below 2**31"),
        ("verify-net", "third", ("--p", "3"), "verify-net got the wrong kind of system"),
        ("invariance", "third", ("--p", "3", "--count", "0"),
         "invariance needs a count of at least 1"),
        ("verify-pencil", "third-dependent", ("--p", "3"), dependent),
        ("verify-pencil", "asymmetric", ("--p", "7"), "Gram matrix must be symmetric"),
        ("verify-pencil", "asymmetric", ("--p", "0"), "Gram matrix must be symmetric"),
        ("verify-pencil", "asymmetric-then-unparsable", ("--p", "7"),
         "Gram matrix must be symmetric"),
        ("verify-pencil", "five", ("--p", "7"), "pencil members must be 4-variable forms"),
        ("verify-pencil", "dependent-mod-7", ("--p", "7"),
         f"pencil has bad reduction mod 7: {dependent}"),
        ("invariance", "dependent-mod-7", ("--p", "7", "--count", "0"),
         "invariance needs a count of at least 1"),
        ("verify-pencil", "f7", ("--p", "11"), "system already lives over GF(7)"),
        ("verify-net", "f7", ("--p", "11"), "verify-net got the wrong kind of system"),
    ]
    for action, name, flags, err in cases:
        argv = ("construct", action, "--system", str(tmp_path / f"{name}.json")) + flags
        assert run(capsys, *argv) == (2, "", f"k3lab: {err}\n"), argv


def test_construct_builds_a_system_over_q_once_over_gf_p(tmp_path, capsys, monkeypatch):
    from k3lab import cli
    from k3lab.systems import QuadricSystem

    built = []
    init = QuadricSystem.__init__

    def counted(self, *forms):
        built.append(forms[0].field)
        init(self, *forms)

    monkeypatch.setattr(QuadricSystem, "__init__", counted)
    # the builtin systems over Q are built once per process: warm them first
    cli._builtin.cache_clear()
    for name in ("builtin:pencil-diagonal", "builtin:net-diagonal"):
        cli.load_system(name)
    assert built == [QQ, QQ]
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"pencil": [
        [["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], _diag(0, 1, 2, 3)]}))
    for argv in (("verify-pencil", "--system", str(path), "--p", "13", "--samples", "3"),
                 ("verify-net", "--system", "builtin:net-diagonal", "--p", "11",
                  "--samples", "2"),
                 ("invariance", "--system", "builtin:pencil-diagonal", "--p", "13",
                  "--count", "2")):
        built.clear()
        run_json(capsys, "construct", *argv)
        assert built == [GF(int(argv[argv.index("--p") + 1]))], argv
    # a system file over F_q, and the other commands, are built as given
    path.write_text(json.dumps({"field": "F13", "pencil": [_diag(1, 2, 3, 4), _diag(0, 1, 2, 3)]}))
    built.clear()
    run_json(capsys, "construct", "verify-pencil", "--system", str(path), "--p", "13",
             "--samples", "2")
    assert built == [GF(13)]
    built.clear()
    run_json(capsys, "pencil", "disc", "--system", str(path))
    assert built == [GF(13)]
    # a builtin is never built again
    built.clear()
    run_json(capsys, "pencil", "disc", "--system", "builtin:pencil-diagonal")
    assert built == []


def test_each_builtin_is_built_once_per_process(capsys, monkeypatch):
    from k3lab import cli

    built = []
    for name, make in cli._BUILTINS.items():
        monkeypatch.setitem(cli._BUILTINS, name,
                            lambda name=name, make=make: built.append(name) or make())
    cli._builtin.cache_clear()
    for argv in (("construct", "verify-pencil", "--system", "builtin:pencil-diagonal",
                  "--p", "13", "--samples", "2"),
                 ("net", "disc", "--system", "builtin:net-diagonal"),
                 ("lattice", "overlattice", "--alpha", ALPHA_OK, "--r", "2"),
                 ("lattice", "overlattice", "--alpha", ALPHA_OK, "--r", "2",
                  "--lattice", "builtin:k3-lattice")):
        outs = {run(capsys, *argv) for _ in range(3)}
        assert len(outs) == 1 and next(iter(outs))[0] == 0, argv
    assert sorted(built) == sorted(cli._BUILTINS)


def test_exit_code_verification_failure(capsys, monkeypatch):
    import k3lab.cli as cli

    monkeypatch.setattr(cli, "verify_relation", _failing_verify)
    code, out, err = run(capsys, "construct", "verify-pencil", "--system",
                         "builtin:pencil-diagonal", "--p", "11",
                         "--samples", "4", "--seed", "0")
    assert code == 3
    assert "verification failed" in err
    assert json.loads(out)["failed"]



def test_exit_code_verification_failure_raised_in_the_library(capsys, monkeypatch):
    # a VerificationFailure from deep in the sampler reaches main's exit-3
    # branch with its message and no report
    from k3lab import quadforms

    sqrt_mod = quadforms.sqrt_mod
    monkeypatch.setattr(quadforms, "sqrt_mod", lambda a, p: (sqrt_mod(a, p) + 1) % p)
    assert run(capsys, "construct", "verify-net", "--system", "builtin:net-diagonal",
               "--p", "13", "--samples", "2") == (
        3, "", "k3lab: verification failed: witt_split: the isometry does not reach "
               "the split normal form\n")


def _corrupt_first_column_op(column_ops):
    def corrupted(w, r):
        (i, s, t, a0, ai), *rest = column_ops(w, r)
        return [(i, s, t, a0 + 1, ai), *rest]
    return corrupted


def _bump_first_entry(kernel_gram):
    def bumped(gram, ops):
        out = kernel_gram(gram, ops)
        out[0][0] += 1
        return out
    return bumped


# (name patched in lattices, its replacement, the message, ambient Gram file or
# None for the K3 lattice, alpha, r); 2 r^2 | (alpha^2) in each case
LATTICE_IDENTITIES = [
    ("_column_ops", _corrupt_first_column_op, "vector is not in the kernel",
     None, (1, 4) + (0,) * 20, 2),
    ("_kernel_gram", _bump_first_entry, "overlattice Gram is not integral",
     None, (1, 4) + (0,) * 20, 2),
    # <8> with alpha = e, r = 2: [L : L0] = 1 and [M : L0] = 2, so det M =
    # det L / 4, which a wrong ambient det 1 does not divide
    ("_det_and_signature", lambda real: lambda gram: (1, (1, 0)),
     "index does not divide the determinant", [[8]], (1,), 2),
]


@pytest.mark.parametrize("name, patch, message, gram, alpha, r", LATTICE_IDENTITIES,
                         ids=[case[0] for case in LATTICE_IDENTITIES])
def test_exit_code_lattice_identity_failure(tmp_path, capsys, monkeypatch,
                                            name, patch, message, gram, alpha, r):
    # an exact identity checked inside overlattice is a verification failure
    # (exit 3), not a precondition violation of the input
    from k3lab import IntegralLattice, VerificationFailure

    argv = ["lattice", "overlattice", "--alpha=" + ",".join(map(str, alpha)), "--r", str(r)]
    ambient = lattices.k3_lattice()
    if gram is not None:
        path = tmp_path / "ambient.json"
        path.write_text(json.dumps({"gram": gram}), encoding="utf-8")
        argv += ["--lattice", str(path)]
        ambient = IntegralLattice(gram)
    monkeypatch.setattr(lattices, name, patch(getattr(lattices, name)))
    assert run(capsys, *argv) == (3, "", f"k3lab: verification failed: {message}\n")
    with pytest.raises(VerificationFailure, match=f"^{message}$"):
        lattices.overlattice(lattices.OverlatticeSpec(ambient, alpha, r))


def test_exit_code_invariance_failure_prints_its_report(capsys, monkeypatch):
    # a group action that doubles the matrix breaks both invariants: the
    # report is printed, then the run exits 3.  Pencils are transformed by
    # left_right_transform, nets by congruence_transform
    from k3lab.polymat import LinearMatrix

    def doubling(transform):
        def doubled(self, *elements):
            out = transform(self, *elements)
            p = out.field.char
            mats = [[[2 * x % p for x in row] for row in mat] for mat in out._mats]
            return LinearMatrix._of_raw(out.field, out.size, out.nvars, mats, out._scale,
                                        out.alternating)
        return doubled

    for name in ("left_right_transform", "congruence_transform"):
        monkeypatch.setattr(LinearMatrix, name, doubling(getattr(LinearMatrix, name)))
    for case in ("pencil", "net"):
        assert run(capsys, "construct", "invariance", "--system", f"builtin:{case}-diagonal",
                   "--p", "13", "--count", "2") == (
            3, f'{{"b_invariant": false, "case": "{case}", "checked": 2, "p": 13, "seed": 0, '
               '"t_invariant": false}\n', "k3lab: verification failed\n")

def test_file_input_with_rational_entries(tmp_path, capsys):
    doc = {
        "field": "Q",
        "pencil": [
            [["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
        ],
    }
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    d = run_json(capsys, "pencil", "disc", "--system", str(path))
    assert d["discriminant"].startswith("1/2*x0^4")


def test_missing_file(capsys):
    code, _, err = run(capsys, "pencil", "disc", "--system", "/no/such/file.json")
    assert code == 1 and "cannot read" in err


def test_python_dash_m_matches_in_process_main(capsys):
    # a fresh interpreter runs __main__, main_entry's sys.exit and builds the
    # builtin system
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, code in ((("net", "probe", "--system", "builtin:net-diagonal",
                         "--primes", "7,11,13"), 0),
                       (("pencil", "count", "--system", "builtin:pencil-diagonal",
                         "--p", "4099"), 2)):
        proc = subprocess.run([sys.executable, "-m", "k3lab", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert proc.returncode == code and (proc.stdout != "") == (code == 0)


def test_threads_env_var_does_not_change_output(capsys, monkeypatch):
    argv = ("pencil", "disc", "--system", "builtin:pencil-diagonal")
    _, base, _ = run(capsys, *argv)
    for value in ("4", "1", "not-a-number"):
        monkeypatch.setenv("K3LAB_THREADS", value)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == base


def test_jinv_degenerate_branch_precondition(tmp_path, capsys):
    doc = {
        "field": "Q",
        "pencil": [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
        ],
    }
    path = tmp_path / "double-root.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pencil", "jinv", "--system", str(path))
    assert code == 2 and "repeated" in err


def test_lattice_file_input(tmp_path, capsys):
    doc = {"label": "U", "gram": [[0, 1], [1, 0]]}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    rep = run_json(capsys, "lattice", "overlattice", "--alpha", "1,4",
                   "--r", "2", "--lattice", str(path))
    assert rep["rank"] == 2 and rep["det"] == -1 and rep["even"] is True


def test_lattice_file_non_integer_entries(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for gram, named in (([[2.7, 1], [1, -2.2]], "2.7"), ([["2", 1], [1, 0]], "'2'"),
                        ([[True, 1], [1, 0]], "True"), ([[0, 1], [1, None]], "None")):
        path.write_text(json.dumps({"gram": gram}))
        code, out, err = run(capsys, "lattice", "overlattice", "--alpha", "1,4",
                             "--r", "2", "--lattice", str(path))
        assert code == 1 and out == ""
        assert f"bad lattice Gram entry {named}" in err
    for doc in ({"gram": [1, 2]}, {"gram": 3}, [[0, 1], [1, 0]]):
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "lattice", "overlattice", "--alpha", "1,4",
                           "--r", "2", "--lattice", str(path))
        assert code == 1 and "parse error" in err


def test_lattice_file_label_must_be_a_string(tmp_path, capsys):
    path = tmp_path / "labelled.json"
    for label, named in ((["x", 1], "['x', 1]"), (7, "7"), (None, "None"),
                         ({"a": 1}, "{'a': 1}")):
        path.write_text(json.dumps({"label": label, "gram": [[0, 1], [1, 0]]}))
        code, out, err = run(capsys, "lattice", "overlattice", "--alpha", "1,4",
                             "--r", "2", "--lattice", str(path))
        assert (code, out) == (1, "")
        assert err == f"k3lab: parse error: lattice 'label' must be a string, got {named}\n"


def test_bundled_k3_lattice_matches_construction(capsys):
    from k3lab import k3_lattice
    from k3lab.cli import load_lattice

    # the data file the benchmark reads is the builtin, which is k3_lattice()
    bundled = load_lattice(str(Path(__file__).parents[1] / "src" / "k3lab" / "data"
                               / "k3-lattice.json"))
    built = load_lattice("builtin:k3-lattice")
    assert bundled.gram == built.gram == k3_lattice().gram
    assert bundled.label == built.label == "K3"
    # without --lattice every op shares the one builtin K3 lattice
    assert load_lattice(None) is built
    rep = run_json(capsys, "lattice", "overlattice", "--alpha", ALPHA_OK,
                   "--r", "2", "--lattice", "builtin:k3-lattice")
    assert rep["det"] == -1 and rep["rank"] == 22


def test_bundled_diagonal_net_matches_construction():
    from k3lab import NetOfQuadrics
    from k3lab.cli import load_system

    # the data file the benchmark reads is the builtin, whose forms are
    # those of NetOfQuadrics.from_diagonals, with int entries
    bundled = load_system(str(Path(__file__).parents[1] / "src" / "k3lab" / "data"
                              / "net-diagonal.json"))
    built = load_system("builtin:net-diagonal")
    want = NetOfQuadrics.from_diagonals([1] * 6, range(6), [k * k for k in range(6)])
    assert [q._rows for q in bundled.forms] == [q._rows for q in built.forms] == [
        q._rows for q in want.forms]
    assert built.field == bundled.field == QQ
    assert {type(x) for q in built.forms for row in q._rows for x in row} == {int}


def test_prime_field_system_input(tmp_path, capsys):
    doc = {
        "field": "F7",
        "pencil": [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
        ],
    }
    path = tmp_path / "pencil7.json"
    path.write_text(json.dumps(doc))
    d = run_json(capsys, "pencil", "disc", "--system", str(path))
    assert d["discriminant"] == "x0^4 + 6*x0^3*x1 + 4*x0^2*x1^2 + 6*x0*x1^3"
    rep = run_json(capsys, "construct", "verify-pencil", "--system", str(path),
                   "--p", "7", "--samples", "4", "--seed", "0")
    assert rep["c"] == 16 % 7


def test_pencil_count_over_a_prime_field(tmp_path, capsys):
    # the builtin diagonal pencil with its field tag set to F_q: --p q counts
    # where the forms live and prints what the pencil over Q prints at p = q
    # (every --p exited 2 with "reduction starts from a form over QQ")
    doc = dict(PENCIL_DIAGONAL)
    for q in (7, 13):
        doc["field"] = f"F{q}"
        path = tmp_path / f"pencil{q}.json"
        path.write_text(json.dumps(doc))
        over_q = run(capsys, "pencil", "count", "--system", "builtin:pencil-diagonal",
                     "--p", str(q))
        rep = run_json(capsys, "pencil", "count", "--system", str(path), "--p", str(q))
        assert (0, json.dumps(rep, sort_keys=True) + "\n", "") == over_q
        assert rep["p"] == q and rep["twist_consistent"] is True
        n, h = rep["pencil_points"], rep["hyperelliptic_points"]
        assert n in (h, 2 * q + 2 - h)
        # any other prime is refused, naming the flag and the field
        for p in ("5", "11", "4099", "9"):
            assert run(capsys, "pencil", "count", "--system", str(path), "--p", p) == (
                2, "", f"k3lab: the system is over GF({q}): --p must be {q}, not {p}\n")



def test_pencils_over_f3_count_and_cover_as_their_lifts_over_q(tmp_path, capsys):
    # the branch quartic's Delta is defined in characteristic 3, so a pencil
    # over F_3 with good reduction counts and covers (both exited 2), and
    # its count prints what the same Gram entries over Q print at --p 3
    def diag(*v):
        return [[v[i] if i == j else 0 for j in range(4)] for i in range(4)]

    def dense(rng):
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                g[i][j] = g[j][i] = rng.randrange(3)
        return g

    rng = random.Random("f3-pencil-files")
    pencils = [[diag(1, 1, 1, 0), diag(0, 1, 2, 1)]]
    pencils += [[dense(rng), dense(rng)] for _ in range(30)]
    over_f3, over_q = tmp_path / "f3.json", tmp_path / "q.json"
    compared = 0
    for grams in pencils:
        over_q.write_text(json.dumps({"pencil": grams}))
        want = run(capsys, "pencil", "count", "--system", str(over_q), "--p", "3")
        if want[0] != 0:  # bad reduction mod 3
            continue
        over_f3.write_text(json.dumps({"field": "F3", "pencil": grams}))
        assert run(capsys, "pencil", "count", "--system", str(over_f3), "--p", "3") == want
        cover = run_json(capsys, "pencil", "cover", "--system", str(over_f3))
        assert cover["verdict"] == {"status": "smooth"}
        compared += 1
    assert compared >= 10
    over_f3.write_text(json.dumps({"field": "F3", "pencil": pencils[0]}))
    assert run(capsys, "pencil", "count", "--system", str(over_f3), "--p", "3") == (
        0, '{"hyperelliptic_points": 4, "p": 3, "pencil_points": 4, '
           '"twist_consistent": true}\n', "")
    # I, J and j stay undefined in characteristic 3
    assert run(capsys, "pencil", "jinv", "--system", str(over_f3)) == (
        2, "", "k3lab: quartic invariants are undefined in characteristic 3\n")

def test_system_file_keys(tmp_path, capsys):
    doc = dict(PENCIL_DIAGONAL)
    net = json.loads((Path(__file__).parents[1] / "src" / "k3lab" / "data"
                      / "net-diagonal.json").read_text())
    cases = [
        # a misspelt field tag no longer loads silently over Q
        ({"feild": "F7", "pencil": doc["pencil"]}, "system file has an unknown key 'feild'"),
        ({**doc, "comment": "x"}, "system file has an unknown key 'comment'"),
        ({"Pencil": doc["pencil"]}, "system file has an unknown key 'Pencil'"),
        # both systems: `net disc` exited 2 with "net subcommands need a net
        # system", and `pencil disc` ignored the net
        ({**doc, "net": net["net"]}, "system file has both a 'pencil' and a 'net' key"),
        ({"field": "Q"}, "system file must contain a 'pencil' or 'net' key"),
        ({}, "system file must contain a 'pencil' or 'net' key"),
    ]
    for i, (bad, message) in enumerate(cases):
        path = tmp_path / f"system{i}.json"
        path.write_text(json.dumps(bad))
        for group in ("pencil", "net"):
            assert run(capsys, group, "disc", "--system", str(path)) == (
                1, "", f"k3lab: parse error: {message}\n"), bad
    # what the keys allow still loads: the field is optional
    path = tmp_path / "no-field.json"
    path.write_text(json.dumps({"pencil": doc["pencil"]}))
    assert run(capsys, "pencil", "disc", "--system", str(path)) == run(
        capsys, "pencil", "disc", "--system", "builtin:pencil-diagonal")


def test_field_tags(tmp_path, capsys):
    # a tag is "F" and canonical decimal digits; int() read "F1_009" as
    # GF(1009) and "F+7", "F07" as GF(7), and "F-7" exited 2
    doc = dict(PENCIL_DIAGONAL)
    path = tmp_path / "pencil.json"
    for tag in ("F1_009", "F+7", "F07", "F-7", "F", "F 7", "F7 ", "F7\n", "f7",
                "F\u0667", "F" + "1" * 21, "Q7", 7):
        path.write_text(json.dumps({**doc, "field": tag}))
        assert run(capsys, "pencil", "disc", "--system", str(path)) == (
            1, "", f"k3lab: parse error: bad field tag {tag!r}\n"), tag
    # well-formed tags naming no odd prime below 2**31 keep exit 2
    for tag, p in (("F4", 4), ("F1", 1), ("F2", 2), ("F2147483659", 2147483659),
                   ("F" + "9" * 20, int("9" * 20))):
        path.write_text(json.dumps({**doc, "field": tag}))
        assert run(capsys, "pencil", "disc", "--system", str(path)) == (
            2, "", f"k3lab: {p} is not an odd prime below 2**31\n"), tag
    for tag in ("F7", "F1009", "F2147483647"):
        path.write_text(json.dumps({**doc, "field": tag}))
        assert run(capsys, "pencil", "disc", "--system", str(path))[0] == 0, tag


def test_integer_flags_are_canonical(capsys):
    # an optional "-", then ASCII digits without a leading zero; int() read
    # "1_3", "+13", " 13" and "\u0661\u0663" as 13, and the lists dropped empty items
    bad = ("1_3", "+13", " 13", "13 ", "13\n", "013", "00", "\u0661\u0663", "", "-",
           "1.0", "1e1", "0x0d", "7" * 5000)
    pencil = ("pencil", "count", "--system", "builtin:pencil-diagonal")
    verify = ("construct", "verify-pencil", "--system", "builtin:pencil-diagonal",
              "--p", "13", "--samples", "2")
    commands = [(pencil, "--p"), (verify, "--seed"), (verify[:-2], "--samples"),
                (("mukai", "dim", "--l2", "8", "--s", "2"), "--r"),
                (("lattice", "overlattice", "--alpha", ALPHA_OK), "--r"),
                (("construct", "invariance", "--system", "builtin:net-diagonal", "--p", "11"),
                 "--count"),
                (("bn", "dim", "--type", "II", "--n", "7"), "--g"),
                (("fano", "section", "--variety", "spinor10"), "--cuts")]
    for argv, flag in commands:
        for text in bad:
            assert run(capsys, *argv, f"{flag}={text}") == (
                1, "", f"k3lab: parse error: argument {flag}: invalid int value: {text!r}\n"
            ), (flag, text)
    # canonical forms parse, and "-0" is 0
    assert run(capsys, *pencil, "--p", "13")[0] == 0
    assert run(capsys, *verify, "--seed", "-0") == run(capsys, *verify, "--seed", "0")
    assert run(capsys, *pencil, "--p", "-13") == (
        2, "", "k3lab: -13 is not an odd prime below 2**31\n")
    # every item of --alpha and --primes, with no empty items
    probe = ("net", "probe", "--system", "builtin:net-diagonal")
    for what, argv, items in (("alpha", ("lattice", "overlattice", "--r", "2"),
                               ALPHA_OK.split(",")),
                              ("primes", probe, ["7", "11"])):
        for text in bad:
            for i in (0, 1, len(items)):
                value = ",".join(items[:i] + [text] + items[i:])
                assert run(capsys, *argv, f"--{what}={value}") == (
                    1, "", f"k3lab: parse error: bad {what} list {value!r}\n"), (what, value)
        assert run(capsys, *argv, f"--{what}={','.join(items)}")[0] == 0
    assert run(capsys, *probe, "--primes", ",") == (
        1, "", "k3lab: parse error: bad primes list ','\n")


def test_lattice_file_keys(tmp_path, capsys):
    path = tmp_path / "u.json"
    for doc, key in (({"gram": [[0, 1], [1, 0]], "lable": "U"}, "lable"),
                     ({"label": "U", "gram": [[0, 1], [1, 0]], "r": 2}, "r")):
        path.write_text(json.dumps(doc))
        assert run(capsys, "lattice", "overlattice", "--alpha", "1,4", "--r", "2",
                   "--lattice", str(path)) == (
            1, "", f"k3lab: parse error: lattice file has an unknown key '{key}'\n")
    path.write_text(json.dumps({"gram": [[0, 1], [1, 0]]}))  # the label is optional
    assert run(capsys, "lattice", "overlattice", "--alpha", "1,4", "--r", "2",
               "--lattice", str(path))[0] == 0


def test_probe_degenerate_net_precondition(tmp_path, capsys):
    def coordinate_square(i):
        row = [[0] * 6 for _ in range(6)]
        row[i][i] = 1
        return row

    doc = {"field": "Q",
           "net": [coordinate_square(0), coordinate_square(1), coordinate_square(2)]}
    path = tmp_path / "degenerate-net.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "net", "probe", "--system", str(path))
    assert code == 2 and "identically" in err
