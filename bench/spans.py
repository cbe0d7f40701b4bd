"""In-memory span tracer that times freespec's layers from the outside.

``Tracer.installed()`` replaces every public function of the traced
freespec modules with a timing wrapper, in every ``freespec.*`` namespace
that holds a reference to it (so intra-package calls such as
``extremality -> pencil.membership`` are caught), wraps ``__init__`` of the
modules' plain classes, and wraps ``numpy.linalg.eigh/eigvalsh/svd``.
Leaving the context restores every original.  Nothing under ``src/`` is
edited.

A span is (name, start, end, parent, op id).  ``layer_metrics`` turns the
spans of one pass into per-layer counts and self times, where a span's
self time is its duration minus the part of it covered by child spans.
"""

import contextlib
import functools
import gzip
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("linalg", "pencil", "extremality", "sphere", "drops", "ballsets",
          "duality", "tupleio", "acceptance", "spin", "fixtures")
LAPACK = ("eigh", "eigvalsh", "svd")

# Span name -> stats reported beyond ``calls`` and ``self_s``.
SPAN_STATS = {
    "extremality.classify": (),
    "extremality.hermitian_direction_system": ("max_unknowns",),
    "extremality.commutant_dimension": ("max_unknowns",),
    "extremality.nonscalar_commutant_element": ("max_unknowns",),
    "extremality.column_dilation_system": ("max_unknowns",),
    "extremality.perturbation_range": ("probes",),
    "extremality.arveson_dilate": ("accepted_steps", "probes", "probes_per_step"),
    "linalg.hermitian_eigen": (),
    "linalg.nullspace": (),
    "linalg.real_nullspace": ("max_cols",),
    "linalg.min_eigenvalue": (),
    "lapack.eigh": ("matrices", "computed_gflop"),
    "lapack.eigvalsh": ("matrices", "computed_gflop"),
    "lapack.svd": ("matrices", "computed_gflop", "full_matrices_calls"),
    "pencil.membership": (),
    "pencil.pencil_value": (),
    "pencil.linear_part": (),
    "pencil.batched_linear_part": (),
    "pencil.level1_bounded_heuristic": (),
    "sphere.ascend_on_sphere": (),
    "sphere.sup_over_sphere": (),
    "drops.level1_hull_membership": (),
    "drops.witness_search": (),
    "drops.project_membership_special": (),
    "ballsets.matrix_ball_membership": (),
    "ballsets.matrix_ball_arveson": (),
    "ballsets.selfdual_ball_membership": (),
    "ballsets.wmax_ball_membership": (),
    "duality.batched_choi_min_eigenvalues": (),
    "duality.choi_membership": (),
    "duality.dual_pencil": (),
    "duality.FullSpanBasis": (),
    "tupleio.read_tuple": (),
    "tupleio.payload_to_tuple": (),
    "tupleio.write_tuple": (),
    "tupleio.tuple_to_payload": (),
}

# A probe is one call of the first name made anywhere below the second.
PROBES = {
    "extremality.arveson_dilate": "linalg.min_eigenvalue",
    "extremality.perturbation_range": "pencil.membership",
}
SYSTEMS = tuple(name for name, stats in SPAN_STATS.items() if "max_unknowns" in stats)

STAT_UNITS = {"calls": "count", "self_s": "s", "max_unknowns": "count",
              "max_cols": "count", "probes": "count", "accepted_steps": "count",
              "probes_per_step": "count/step", "matrices": "count",
              "computed_gflop": "GFLOP", "full_matrices_calls": "count"}
HIGHER_IS_BETTER = {"accepted_steps"}


def span_metric_specs():
    """(name, unit, better) of every metric ``layer_metrics`` reports."""
    specs = []
    for span, extra in SPAN_STATS.items():
        for stat in ("calls", "self_s") + extra:
            better = "higher" if stat in HIGHER_IS_BETTER else "lower"
            specs.append((f"{span}.{stat}", STAT_UNITS[stat], better))
    specs += [("sphere.evals", "count", "lower"), ("tupleio.bytes", "B", "lower")]
    specs += [(f"acceptance.criterion_{k}.s", "s", "lower") for k in range(1, 12)]
    return specs


class Tracer:
    """Records spans in parallel lists; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.ops, self.attrs = [], [], []
        self.op = -1
        self.paused = False
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self.names)

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.attrs.append(None)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    def note(self, idx, key, value):
        if self.attrs[idx] is None:
            self.attrs[idx] = {}
        self.attrs[idx][key] = value

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def pause(self):
        """Let calls through unrecorded, e.g. during the benchmark's checks."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                if before is not None:
                    args, kwargs = before(tracer, idx, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, idx, args, kwargs, result)
                return result
            finally:
                tracer.close(idx)

        return traced

    @contextlib.contextmanager
    def installed(self, package="freespec"):
        """Patch the layers of an imported ``package``; restore on exit."""
        import numpy.linalg

        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == package or key.startswith(package + "."))]
        try:
            for layer in LAYERS:
                module = sys.modules.get(f"{package}.{layer}")
                if module is None:
                    continue
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    name = f"{layer}.{attr}"
                    if inspect.isfunction(obj):
                        wrapper = self.wrap(name, obj)
                        for ns in namespaces:
                            for key, value in list(vars(ns).items()):
                                if value is obj:
                                    self._patch(ns, key, wrapper)
                    elif (inspect.isclass(obj) and "__init__" in vars(obj)
                          and not hasattr(obj, "__dataclass_fields__")):
                        self._patch(obj, "__init__", self.wrap(name, vars(obj)["__init__"]))
            for fn in LAPACK:
                self._patch(numpy.linalg, fn, self.wrap(f"lapack.{fn}", getattr(numpy.linalg, fn)))
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                setattr(owner, key, original)
            self._patches.clear()

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def self_times(self):
        """Duration of each span minus the union of its children's intervals."""
        children = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, kids in enumerate(children):
            start, end = self.starts[idx], self.ends[idx]
            covered, reach = 0.0, start
            for kid in sorted(kids, key=self.starts.__getitem__):
                lo, hi = max(self.starts[kid], reach), min(self.ends[kid], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def write(self, path):
        """Write the spans as gzipped JSON: a name table plus one row per span."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        rows = [[index[n], s, e, p, o] for n, s, e, p, o
                in zip(self.names, self.starts, self.ends, self.parents, self.ops)]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": table, "spans": rows}, fh)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, keyed as in ``span_metric_specs``."""
    selfs = tracer.self_times()
    out = {name: 0.0 for name, _, _ in span_metric_specs()}
    tracked = set(PROBES) | set(SYSTEMS)
    enclosing = []  # name -> index of the nearest enclosing span of that name
    system_cols = {}
    for idx, name in enumerate(tracer.names):
        parent = tracer.parents[idx]
        scope = enclosing[parent] if parent >= 0 else {}
        if name in tracked:
            scope = dict(scope, **{name: idx})
        enclosing.append(scope)
        attrs = tracer.attrs[idx] or {}
        if name in SPAN_STATS:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[idx]
        for outer, probe in PROBES.items():
            if name == probe and outer in scope:
                out[f"{outer}.probes"] += 1
        if name == "linalg.real_nullspace":
            cols = attrs.get("cols", 0)
            out["linalg.real_nullspace.max_cols"] = max(out["linalg.real_nullspace.max_cols"], cols)
            for system in SYSTEMS:
                if system in scope:
                    key = f"{system}.max_unknowns"
                    system_cols[key] = max(system_cols.get(key, 0), cols)
        if name.startswith("lapack."):
            out[f"{name}.matrices"] += attrs.get("matrices", 0)
            out[f"{name}.computed_gflop"] += attrs.get("flop", 0.0) / 1e9
            if attrs.get("full_matrices"):
                out["lapack.svd.full_matrices_calls"] += 1
        out["sphere.evals"] += attrs.get("evals", 0)
        out["tupleio.bytes"] += attrs.get("bytes", 0)
        out["extremality.arveson_dilate.accepted_steps"] += attrs.get("accepted_steps", 0)
        for number, seconds in attrs.get("criteria", {}).items():
            out[f"acceptance.criterion_{number}.s"] += seconds
    out.update(system_cols)
    steps = out["extremality.arveson_dilate.accepted_steps"]
    out["extremality.arveson_dilate.probes_per_step"] = (
        out["extremality.arveson_dilate.probes"] / steps if steps else 0.0)
    return out


# --- hooks: sizes and counts recorded at the layer boundary -----------------

def _lapack_hook(kind):
    def before(tracer, idx, args, kwargs):
        shape = getattr(args[0], "shape", None) if args else None
        if shape is None or len(shape) < 2:
            return args, kwargs
        m, n = shape[-2], shape[-1]
        count = math.prod(shape[:-2])
        scale = 4.0 if _is_complex(args[0]) else 1.0
        full = False
        if kind == "eigvalsh":
            flop = 4.0 / 3.0 * n ** 3
        elif kind == "eigh":
            flop = 9.0 * n ** 3
        else:
            flop, full = _svd_flop(m, n, args, kwargs)
        tracer.note(idx, "matrices", count)
        tracer.note(idx, "flop", scale * count * flop)
        if full:
            tracer.note(idx, "full_matrices", True)
        return args, kwargs
    return before, None


def _is_complex(arr):
    kind = getattr(getattr(arr, "dtype", None), "kind", "f")
    return kind == "c"


def _svd_flop(m, n, args, kwargs):
    """Golub-Reinsch SVD operation counts (Golub & Van Loan, 3rd ed., 5.4.5)."""
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        return 4.0 * big * small ** 2 - 4.0 / 3.0 * small ** 3, False
    if full:
        return 4.0 * big ** 2 * small + 8.0 * big * small ** 2 + 9.0 * small ** 3, True
    return 14.0 * big * small ** 2 + 8.0 * small ** 3, False


def _real_nullspace_before(tracer, idx, args, kwargs):
    shape = getattr(args[0], "shape", None) if args else None
    if shape is not None and len(shape) == 2:
        tracer.note(idx, "cols", int(shape[1]))
    return args, kwargs


def _count_objective(tracer, idx, args, kwargs):
    """Count objective evaluations once, at the outermost sphere call."""
    fn = kwargs.get("value_and_grad", args[0] if args else None)
    if fn is None or getattr(fn, "_bench_counted", False):
        return args, kwargs
    tracer.note(idx, "evals", 0)

    def counted(c):
        tracer.attrs[idx]["evals"] += 1
        return fn(c)

    counted._bench_counted = True
    if "value_and_grad" in kwargs:
        kwargs = dict(kwargs, value_and_grad=counted)
    else:
        args = (counted,) + tuple(args[1:])
    return args, kwargs


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _read_before(tracer, idx, args, kwargs):
    tracer.note(idx, "bytes", _file_bytes(kwargs.get("path", args[0] if args else None)))
    return args, kwargs


def _write_after(tracer, idx, args, kwargs, result):
    tracer.note(idx, "bytes", _file_bytes(kwargs.get("path", args[0] if args else None)))


def _dilate_after(tracer, idx, args, kwargs, result):
    tracer.note(idx, "accepted_steps", len(result.steps))


def _acceptance_after(tracer, idx, args, kwargs, result):
    tracer.note(idx, "criteria", {r.number: r.elapsed for r in result})


_HOOKS = {
    "lapack.eigh": _lapack_hook("eigh"),
    "lapack.eigvalsh": _lapack_hook("eigvalsh"),
    "lapack.svd": _lapack_hook("svd"),
    "linalg.real_nullspace": (_real_nullspace_before, None),
    "sphere.ascend_on_sphere": (_count_objective, None),
    "sphere.sup_over_sphere": (_count_objective, None),
    "tupleio.read_tuple": (_read_before, None),
    "tupleio.write_tuple": (None, _write_after),
    "extremality.arveson_dilate": (None, _dilate_after),
    # ALL_CRITERIA holds direct references to the criteria, so their times
    # come from the CriterionResult list that run_acceptance returns.
    "acceptance.run_acceptance": (None, _acceptance_after),
}
