"""Seeded op generators and output checkers for the k3lab benchmark.

An op is one ``k3lab`` CLI invocation.  Each workload is a fixed cycle of
op classes (kind, prime, ...); op ``i`` belongs to class ``i % len(cycle)``
and draws its system, alpha and CLI seed from one ``random.Random`` stream
keyed by the workload name and the workload seed.  The round-robin cycle
keeps every run's mix of classes the same whatever the seed, so run-to-run
spread comes from the inputs' contents, not from their mix.

Inputs are filtered only on properties of the input itself: the diagonal
entries of a system give pairwise distinct points mod p (good reduction),
a system that is sampled has a split nondegenerate member mod p (without
one the CLI rightly exits with NoSplitMember, which happens for pencils at
p = 7), and ``2 r^2 | (alpha^2)`` for overlattices.

The checkers never look at base points, Witt bases or the seed -> sample
mapping; they check universal facts (the relation constant, the Hasse
bound, lattice invariants) and re-derive probe witnesses with their own
integer arithmetic mod p.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BUILTIN_PENCIL = "builtin:pencil-diagonal"
BUILTIN_NET = "builtin:net-diagonal"
SYSTEM_ARG = "{system}"  # stands for the path of the op's system file in argv

# The relation T^2 = c * disc(B) holds with these constants for every
# diagonal pencil / net in the Gram normalization the CLI uses.
RELATION_CONSTANT = {"pencil": 16, "net": -64}

K3_GRAM_FILE = Path(__file__).resolve().parent.parent / "src" / "k3lab" / "data" / "k3-lattice.json"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str                    # verify | invariance | count | probe | overlattice
    argv: tuple                  # SYSTEM_ARG marks the system file argument
    system: dict | None = None   # JSON document written to the system file
    p: int = 0
    case: str = ""               # pencil | net
    diagonal: bool = False
    extra: dict = field(default_factory=dict)

    def key(self) -> str:
        """Canonical text of the op, used for the op-list digest."""
        return json.dumps([self.kind, list(self.argv), self.system], sort_keys=True)


# -- input generators --------------------------------------------------------

def _distinct_points_mod(vectors, p) -> bool:
    """True when the integer vectors are nonzero mod p and pairwise distinct
    as points of projective space over F_p."""
    seen = set()
    for v in vectors:
        r = [x % p for x in v]
        lead = next((x for x in r if x), None)
        if lead is None:
            return False
        inv = pow(lead, -1, p)
        point = tuple(x * inv % p for x in r)
        if point in seen:
            return False
        seen.add(point)
    return True


def _rank_mod(rows, p) -> int:
    a = [[x % p for x in row] for row in rows]
    rank, ncols = 0, len(a[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _diag_gram(d):
    n = len(d)
    return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


def random_diagonal_system(rng, case: str, p: int, split: bool) -> dict:
    """A diagonal pencil (4 variables, 2 forms) or net (6 variables, 3 forms)
    with good reduction at p: the columns of diagonal entries are pairwise
    distinct projective points mod p, and the forms stay independent mod p.
    With ``split``, it also has a split nondegenerate member mod p."""
    n, k = (4, 2) if case == "pencil" else (6, 3)
    while True:
        diags = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(k)]
        system = {"field": "Q", case: [_diag_gram(d) for d in diags]}
        if (_distinct_points_mod(list(zip(*diags)), p) and _rank_mod(diags, p) == k
                and (not split or has_split_member(system, p))):
            return system


def _projective_points(k, p):
    for lead in range(k):
        for idx in range(p ** (k - lead - 1)):
            rest = [(idx // p ** i) % p for i in range(k - lead - 1)]
            yield [0] * lead + [1] + rest


def has_split_member(system: dict, p: int) -> bool:
    """True when some member sum l_k q_k of a diagonal system is nondegenerate
    and split mod p: a form of dimension 2m over F_p is split exactly when
    (-1)^m det is a nonzero square."""
    case = "pencil" if "pencil" in system else "net"
    diags = [[g[i][i] for i in range(len(g))] for g in system[case]]
    m = len(diags[0]) // 2
    for lam in _projective_points(len(diags), p):
        det = (-1) ** m
        for col in zip(*diags):
            det *= sum(l * d for l, d in zip(lam, col))
        det %= p
        if det and pow(det, (p - 1) // 2, p) == 1:
            return True
    return False


def random_dense_net(rng) -> dict:
    """Three random symmetric 6x6 integer Gram matrices."""
    grams = []
    for _ in range(3):
        g = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i, 6):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        grams.append(g)
    return {"field": "Q", "net": grams}


@functools.lru_cache(maxsize=None)
def _k3_gram_entries():
    """The nonzero entries (i, j, g_ij) of the K3 lattice's Gram matrix."""
    gram = json.loads(K3_GRAM_FILE.read_text("utf-8"))["gram"]
    return len(gram), tuple((i, j, x) for i, row in enumerate(gram)
                            for j, x in enumerate(row) if x)


def random_alpha(rng, r: int, size: int):
    """A nonzero alpha in the K3 lattice with entries in [-size, size] and
    2 r^2 | (alpha^2)."""
    n, entries = _k3_gram_entries()
    while True:
        a = [rng.randint(-size, size) for _ in range(n)]
        sq = sum(a[i] * x * a[j] for i, j, x in entries)
        if any(a) and sq % (2 * r * r) == 0:
            return a


# -- op classes ----------------------------------------------------------------

def _verify(case, p, samples, builtin_share=0.25):
    def make(rng):
        if rng.random() < builtin_share:
            system, arg = None, BUILTIN_PENCIL if case == "pencil" else BUILTIN_NET
        else:
            system, arg = random_diagonal_system(rng, case, p, True), SYSTEM_ARG
        argv = ("construct", f"verify-{case}", "--system", arg, "--p", str(p),
                "--samples", str(samples), "--seed", str(rng.randrange(10**6)))
        return Op("verify", argv, system, p=p, case=case,
                  extra={"samples": samples})
    return make


def _invariance(case, p, count):
    def make(rng):
        system = random_diagonal_system(rng, case, p, True)
        argv = ("construct", "invariance", "--system", SYSTEM_ARG, "--p", str(p),
                "--count", str(count), "--seed", str(rng.randrange(10**6)))
        return Op("invariance", argv, system, p=p, case=case, extra={"count": count})
    return make


def _count(p):
    def make(rng):
        system = random_diagonal_system(rng, "pencil", p, False)
        argv = ("pencil", "count", "--system", SYSTEM_ARG, "--p", str(p))
        return Op("count", argv, system, p=p, case="pencil", diagonal=True)
    return make


def _probe(p, diagonal):
    def make(rng):
        system = (random_diagonal_system(rng, "net", p, False) if diagonal
                  else random_dense_net(rng))
        argv = ("net", "probe", "--system", SYSTEM_ARG, "--primes", str(p))
        return Op("probe", argv, system, p=p, case="net", diagonal=diagonal)
    return make


def _overlattice(r, size):
    def make(rng):
        alpha = random_alpha(rng, r, size)
        # "--alpha=..." because a leading minus sign would read as a flag
        argv = ("lattice", "overlattice", "--alpha=" + ",".join(map(str, alpha)),
                "--r", str(r))
        return Op("overlattice", argv, extra={"r": r})
    return make


SMALL_PRIMES = (7, 11, 13, 17, 19, 23)


def _relation_small_p_cycle():
    # Two verify ops per prime, and an invariance op after every four
    # verify ops: one op in five checks invariance.  Pencil verify ops are
    # the cheapest 40% and net verify ops the dearest 40%; invariance on nets
    # costs in between, so the median falls inside one class instead of on
    # the edge between two.
    verify = [_verify(case, p, 4) for p in SMALL_PRIMES for case in ("pencil", "net")]
    invariance = [_invariance("net", p, 4) for p in (11, 17, 23)]
    cycle = []
    for i in range(0, len(verify), 4):
        cycle += verify[i:i + 4] + [invariance[i // 4]]
    return cycle


CYCLES = {
    "relation-small-p": _relation_small_p_cycle(),
    "relation-large-p": [_verify("pencil", 401, 2), _verify("pencil", 1009, 2),
                         _verify("net", 101, 2), _verify("net", 151, 2),
                         _verify("net", 211, 2)],
    # Probe primes stop at 47 so that a run's 100 ops fit its time on a slow host.
    "point-count": ([_count(p) for p in (11, 13, 17, 19, 23)]
                    + [_probe(p, False) for p in (23, 31, 37, 43, 47)]
                    + [_probe(43, True)]),
    # Entries in [-1, 1] give ops from about half to about the cost of
    # entries in [-3, 3]; the spread of costs keeps the median from jumping
    # between the fast and slow phases of a noisy host.
    "overlattice": [_overlattice(2, 1), _overlattice(3, 1),
                    _overlattice(2, 3), _overlattice(3, 3)],
}


def make_ops(workload: str, seed, n: int) -> list:
    """The first ``n`` ops of a workload for a seed (the warm-up ops use the
    seed "warm-up", the same for every run)."""
    cycle = CYCLES[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [cycle[i % len(cycle)](rng) for i in range(n)]


def cycle_length(workload: str) -> int:
    return len(CYCLES[workload])


def ops_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- output checkers -------------------------------------------------------------

def check(op: Op, rc, stdout: str):
    """None when the op's output is correct, else a one-line witness."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return CHECKERS[op.kind](op, out)


def _check_verify(op, out):
    samples = op.extra["samples"]
    if out.get("case") != op.case or out.get("p") != op.p:
        return f"wrong case/p echoed: {out.get('case')}/{out.get('p')}"
    if out.get("samples") != samples or out.get("passed") != samples:
        return f"passed {out.get('passed')} of {out.get('samples')}, want {samples}"
    if out.get("failed") != []:
        return f"failed samples: {out.get('failed')}"
    want = RELATION_CONSTANT[op.case] % op.p
    if not isinstance(out.get("c"), int) or out["c"] % op.p != want:
        return f"c = {out.get('c')}, want {want} mod {op.p}"
    return None


def _check_invariance(op, out):
    if out.get("checked") != op.extra["count"]:
        return f"checked {out.get('checked')}, want {op.extra['count']}"
    if out.get("b_invariant") is not True or out.get("t_invariant") is not True:
        return f"b_invariant={out.get('b_invariant')} t_invariant={out.get('t_invariant')}"
    return None


def _check_count(op, out):
    p = op.p
    if out.get("p") != p:
        return f"p = {out.get('p')}, want {p}"
    if out.get("twist_consistent") is not True:
        return f"twist_consistent = {out.get('twist_consistent')}"
    for key in ("pencil_points", "hyperelliptic_points"):
        n = out.get(key)
        # Hasse: |N - (p + 1)| <= 2 sqrt(p) for a smooth genus-one curve.
        if not isinstance(n, int) or (n - p - 1) ** 2 > 4 * p:
            return f"{key} = {n} violates the Hasse bound at p = {p}"
    return None


def _check_probe(op, out):
    p = op.p
    status = out.get("status")
    if out.get("primes") != [p]:
        return f"primes = {out.get('primes')}, want [{p}]"
    if op.diagonal and status != "singular":
        return f"diagonal net reported {status!r}, want 'singular'"
    if status == "probably-smooth":
        return None
    if status != "singular":
        return f"unknown status {status!r}"
    witness = out.get("witness") or {}
    point = witness.get("point")
    if witness.get("p") != p or not isinstance(point, list) or len(point) != 3:
        return f"malformed witness {witness}"
    if not any(x % p for x in point):
        return f"witness {point} is not a projective point"
    bad = sextic_singularity_defect(op.system["net"], point, p)
    if bad is not None:
        return f"witness {point} mod {p}: {bad} does not vanish"
    return None


def _check_overlattice(op, out):
    want = {"rank": 22, "even": True, "det": -1, "signature": [3, 19]}
    got = {k: out.get(k) for k in want}
    if got != want:
        return f"invariants {got}, want {want}"
    return None


CHECKERS = {"verify": _check_verify, "invariance": _check_invariance,
            "count": _check_count, "probe": _check_probe,
            "overlattice": _check_overlattice}


# -- independent sextic evaluation mod p -----------------------------------------

def _det_mod(m, p) -> int:
    a = [[x % p for x in row] for row in m]
    n, d = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d = d * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return d % p


def sextic_singularity_defect(grams, point, p):
    """Name of the first of f, df/dl0, df/dl1, df/dl2 that is nonzero at
    ``point`` mod p, where f(l) = det(sum l_k G_k); None at a singular point.

    The partials use Jacobi's formula df/dl_k = sum_ij C_ij G_k[i][j] with
    C the cofactor matrix of M = sum l_k G_k, all in integers mod p.
    """
    n = len(grams[0])
    m = [[sum(l * g[i][j] for l, g in zip(point, grams)) % p for j in range(n)]
         for i in range(n)]
    if _det_mod(m, p):
        return "f"
    cof = [[(-1) ** (i + j) * _det_mod([r[:j] + r[j + 1:] for r in m[:i] + m[i + 1:]], p)
            for j in range(n)] for i in range(n)]
    for k, g in enumerate(grams):
        if sum(cof[i][j] * g[i][j] for i in range(n) for j in range(n)) % p:
            return f"df/dl{k}"
    return None
