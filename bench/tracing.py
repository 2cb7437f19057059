"""Layer-boundary tracing for the k3lab benchmark, from outside the program.

``Tracer.install()`` wraps the public functions at each layer boundary of
``k3lab``.  Modules bind names with ``from ... import``, so a function's
wrapper is installed at every module attribute that holds it; methods are
wrapped on their class.  ``uninstall()`` restores the originals.  Wrappers
re-raise exceptions unchanged (the sampler rejects members through
``NotSplit``).

Every call becomes a frame on a stack.  A frame's self time is its
duration minus the durations of its child frames.  Calls are aggregated
per (op, parent, name); calls outside ``LEAVES`` are also kept as spans
(name, start, end, parent, op) and written out at the end of a run, while
the fine-grained leaves (``eval``, ``bilinear``, ``pairing``, generator
items, ...) are only aggregated so memory stays bounded.  Boxed
``GFElement`` arithmetic is not wrapped: a wrapper would cost more than
the operation, so that time shows in the self time of the leaf layers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (module, attribute, span name).  "Class.method" attributes are methods.
TARGETS = (
    ("k3lab.cli", "main", "cli.main"),
    ("k3lab.cli", "load_system", "cli.load_system"),
    ("k3lab.construction", "verify_relation", "construction.verify_relation"),
    ("k3lab.construction", "sample_point", "construction.sample_point"),
    ("k3lab.construction", "b_coordinates", "construction.b_coordinates"),
    ("k3lab.construction", "t_invariant", "construction.t_invariant"),
    ("k3lab.construction", "group_invariance_check", "construction.group_invariance_check"),
    ("k3lab.quadforms", "express_as_2x2_det", "quadforms.express"),
    ("k3lab.quadforms", "express_as_pfaffian", "quadforms.express"),
    ("k3lab.quadforms", "witt_split", "quadforms.witt_split"),
    ("k3lab.quadforms", "isotropic_vector", "quadforms.isotropic_vector"),
    ("k3lab.quadforms", "QuadraticForm.bilinear", "quadforms.bilinear"),
    ("k3lab.quadforms", "QuadraticForm.eval", "quadforms.eval"),
    ("k3lab.polymat", "LinearMatrix.det_poly", "polymat.det_poly"),
    ("k3lab.polymat", "LinearMatrix.pfaffian_poly", "polymat.pfaffian_poly"),
    ("k3lab.polymat", "poly_det", "polymat.poly_det"),
    ("k3lab.poly", "MultiPoly.eval", "poly.eval"),
    ("k3lab.linalg", "det", "linalg.det"),
    ("k3lab.linalg", "rank", "linalg.rank"),
    ("k3lab.linalg", "solve", "linalg.solve"),
    ("k3lab.linalg", "inverse", "linalg.inverse"),
    ("k3lab.linalg", "nullspace", "linalg.nullspace"),
    ("k3lab.linalg", "mat_mul", "linalg.mat_mul"),
    ("k3lab.linalg", "congruence_diagonalize", "linalg.congruence_diagonalize"),
    ("k3lab.scalars", "projective_points", "scalars.projective_points"),
    ("k3lab.scalars", "PrimeField.sqrt", "scalars.sqrt"),
    ("k3lab.scalars", "PrimeField.legendre", "scalars.legendre"),
    ("k3lab.systems", "count_points", "systems.count_points"),
    ("k3lab.systems", "sextic_smoothness_probe", "systems.sextic_smoothness_probe"),
    ("k3lab.systems", "discriminant_poly", "systems.discriminant_poly"),
    ("k3lab.lattices", "overlattice", "lattices.overlattice"),
    ("k3lab.lattices", "l_zero_basis", "lattices.l_zero_basis"),
    ("k3lab.lattices", "hnf_row_basis", "lattices.hnf_row_basis"),
    ("k3lab.lattices", "lattice_invariants", "lattices.lattice_invariants"),
    ("k3lab.lattices", "IntegralLattice.pairing", "lattices.pairing"),
)
GENERATORS = frozenset({"scalars.projective_points"})
LEAVES = frozenset({"quadforms.eval", "quadforms.bilinear", "poly.eval",
                    "lattices.pairing", "scalars.projective_points",
                    "scalars.sqrt", "scalars.legendre"})
LAYERS = ("cli", "construction", "quadforms", "polymat", "poly", "linalg",
          "scalars", "systems", "lattices")


class _Frame:
    __slots__ = ("name", "start", "child", "parent", "span_id", "raised")

    def __init__(self, name, parent, span_id):
        self.name, self.parent, self.span_id = name, parent, span_id
        self.child = 0
        self.raised = False
        self.start = perf_counter_ns()


class Tracer:
    """Wraps k3lab's layer boundaries and records spans for one run."""

    def __init__(self):
        self.op = -1
        self.stack = []
        self.spans = []  # (span_id, parent_id, op, name, start_ns, end_ns, raised)
        self.agg = {}    # (op, parent name, name) -> [calls, total_ns, self_ns, raised]
        self._restore = []
        self._next_id = 0

    # -- recording -------------------------------------------------------------
    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        frame = _Frame(name, parent, self._next_id)
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter_ns()
        self.stack.pop()
        dur = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child += dur
        key = (self.op, parent.name if parent else None, frame.name)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame.child
        rec[3] += frame.raised
        if frame.name not in LEAVES:
            self.spans.append((frame.span_id, parent.span_id if parent else None,
                               self.op, frame.name, frame.start, end, frame.raised))

    def _wrap(self, fn, name):
        enter, leave = self._enter, self._exit

        if name in GENERATORS:
            # Busy time is the time spent inside next(); a StopIteration
            # counts as a raised call, so items yielded = calls - raised.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter(name)
                    try:
                        item = next(it)
                    except StopIteration:  # re-raising it here would be a RuntimeError
                        frame.raised = True
                        leave(frame)
                        return
                    except BaseException:
                        frame.raised = True
                        leave(frame)
                        raise
                    leave(frame)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                frame.raised = True
                raise
            finally:
                leave(frame)
        return traced

    # -- installation -------------------------------------------------------------
    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "k3lab" or n.startswith("k3lab.")]
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------------------
    def totals(self):
        """name -> [calls, total_ns, self_ns, raised] summed over ops and parents."""
        out = {}
        for (_, _, name), rec in self.agg.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += rec[i]
        return out

    def calls_under(self, name, parent):
        return sum(rec[0] for (_, par, n), rec in self.agg.items()
                   if n == name and par == parent)

    def metrics(self):
        """The per-layer metrics, by name, as (value, unit)."""
        t = self.totals()
        calls = lambda n: t.get(n, [0, 0, 0, 0])[0]
        self_ms = lambda n: t.get(n, [0, 0, 0, 0])[2] / 1e6
        raised = lambda n: t.get(n, [0, 0, 0, 0])[3]
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("cli.main.self_ms", self_ms("cli.main"), "ms")
        put("cli.load_system.self_ms", self_ms("cli.load_system"), "ms")
        put("construction.verify_relation.self_ms", self_ms("construction.verify_relation"), "ms")
        put("construction.sample_point.calls", calls("construction.sample_point"), "count")
        put("construction.sample_point.self_ms", self_ms("construction.sample_point"), "ms")
        put("construction.base_points_examined",
            self.calls_under("poly.eval", "construction.sample_point"), "count")
        attempts = calls("quadforms.express")
        put("construction.split_yield",
            (attempts - raised("quadforms.express")) / attempts if attempts else 0.0, "ratio")
        put("construction.b_coordinates.calls", calls("construction.b_coordinates"), "count")
        put("construction.b_coordinates.self_ms", self_ms("construction.b_coordinates"), "ms")
        put("construction.t_invariant.self_ms", self_ms("construction.t_invariant"), "ms")
        put("construction.group_invariance_check.self_ms",
            self_ms("construction.group_invariance_check"), "ms")
        put("quadforms.express.calls", attempts, "count")
        # The sampler catches only NotSplit; any other exception would fail the op.
        put("quadforms.express.not_split", raised("quadforms.express"), "count")
        put("quadforms.express.self_ms", self_ms("quadforms.express"), "ms")
        for fn in ("witt_split", "isotropic_vector", "bilinear", "eval"):
            put(f"quadforms.{fn}.calls", calls(f"quadforms.{fn}"), "count")
            put(f"quadforms.{fn}.self_ms", self_ms(f"quadforms.{fn}"), "ms")
        put("quadforms.isotropic_vector.tries",
            self.calls_under("quadforms.eval", "quadforms.isotropic_vector"), "count")
        for fn in ("det_poly", "pfaffian_poly", "poly_det"):
            put(f"polymat.{fn}.calls", calls(f"polymat.{fn}"), "count")
            put(f"polymat.{fn}.self_ms", self_ms(f"polymat.{fn}"), "ms")
        put("poly.eval.calls", calls("poly.eval"), "count")
        put("poly.eval.self_ms", self_ms("poly.eval"), "ms")
        for fn in ("det", "rank", "solve", "inverse", "nullspace", "mat_mul",
                   "congruence_diagonalize"):
            put(f"linalg.{fn}.calls", calls(f"linalg.{fn}"), "count")
            put(f"linalg.{fn}.self_ms", self_ms(f"linalg.{fn}"), "ms")
        gen = "scalars.projective_points"
        put("scalars.projective_points.yielded", calls(gen) - raised(gen), "count")
        put("scalars.projective_points.busy_ms", self_ms(gen), "ms")
        put("scalars.sqrt.calls", calls("scalars.sqrt"), "count")
        put("scalars.legendre.calls", calls("scalars.legendre"), "count")
        put("systems.count_points.calls", calls("systems.count_points"), "count")
        put("systems.count_points.self_ms", self_ms("systems.count_points"), "ms")
        put("systems.sextic_smoothness_probe.self_ms",
            self_ms("systems.sextic_smoothness_probe"), "ms")
        put("systems.points_checked",
            sum(self.calls_under(gen, parent) for parent in
                ("systems.count_points", "systems.sextic_smoothness_probe")), "count")
        put("systems.discriminant_poly.self_ms", self_ms("systems.discriminant_poly"), "ms")
        for fn in ("overlattice", "l_zero_basis", "hnf_row_basis", "lattice_invariants"):
            put(f"lattices.{fn}.self_ms", self_ms(f"lattices.{fn}"), "ms")
        put("lattices.pairing.calls", calls("lattices.pairing"), "count")
        for layer in LAYERS:
            put(f"{layer}.self_ms", sum(rec[2] for name, rec in t.items()
                                        if name.split(".")[0] == layer) / 1e6, "ms")
        return m

    def layer_self_ns(self) -> int:
        return sum(rec[2] for rec in self.agg.values())

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start_ns", "end_ns", "raised"), s))) + "\n")
            for (op, parent, name), rec in sorted(self.agg.items(), key=str):
                if name in LEAVES:
                    fh.write(json.dumps({"op": op, "parent": parent, "name": name,
                                         "calls": rec[0], "total_ns": rec[1],
                                         "self_ns": rec[2], "raised": rec[3]}) + "\n")
