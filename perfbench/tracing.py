"""Spans around calls into specseq's layers, installed from the benchmark.

Nothing inside src/ knows about tracing.  `Tracer.install` replaces each
traced function by a wrapper in every specseq module that bound it (for
example `spectral`, `randomized`, `filtration` and `cli` import names from
`linalg` at import time), and on the class for methods; `uninstall` puts the
originals back.  A span records its name, start, end, parent span and the
cells (rows x columns) handed in, with times in wall-clock seconds like
the end-to-end metrics.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
Every span opened inside a benchmark root span ("bench.setup",
"bench.instance", opened by `Tracer.call`) nests under it, so the self times of all spans add
up to the roots' total duration.  Spans are kept on one stack, so tracing
assumes a single thread: spans opened by concurrent workers would overlap
their parent and the self times would no longer add up.  The traced run
therefore drives the CLI with one page worker.
"""

import sys
import threading
import time
from array import array
from collections import Counter

from specseq import cli, fields, filtration, graded, linalg, randomized
from specseq.filtration import FilteredComplex
from specseq.linalg import Matrix, QuotientPresentation, Subspace
from specseq.spectral import SpectralSequence

LINALG_OPS = (
    "kernel",
    "preimage",
    "intersect",
    "quotient",
    "induced_map",
    "apply_to_subspace",
    "subspace_sum",
    "Subspace.spanned_by_columns",
    "echelonize",
)
MEMO_TABLES = ("entry", "cycles", "differential")

# builder span name -> the function it wraps
BUILDER_SPANS = {
    "graded.algebra": (graded, "build_quotient_algebra"),
    "graded.resolution": (graded, "minimal_free_resolution"),
    "graded.koszul": (graded, "koszul_complex"),
    "graded.tensor": (graded, "tensor_complex"),
    "graded.expand": (graded, "expand"),
    "graded.factor": (graded, "factor_filtration"),
    "simplicial.chains": (filtration, "from_simplicial"),
    "filtration.levels": (filtration, "from_basis_levels"),
    "randomized.generate": (randomized, "random_filtered_complex"),
}
SPECTRAL_METHODS = ("entry", "cycles", "differential", "page", "limit_comparison")


def _cells(obj):
    if isinstance(obj, Matrix):
        return obj.rows * obj.cols
    if isinstance(obj, Subspace):
        return obj.ambient_dim * obj.dim
    if isinstance(obj, QuotientPresentation):
        return obj.ambient_dim * (obj.dim + obj.relations.dim)
    return 0


def _args_cells(args):
    return sum(_cells(a) for a in args)


def _spanned_cells(args):
    # (cls, field, ambient_dim, columns)
    return args[2] * len(args[3])


def _basis_dim(fc):
    return sum(fc.ambient.dim(n) for n in fc.ambient.degrees())


class Tracer:
    """Records spans and counters while installed.

    `extra_modules` are the benchmark's own modules that imported specseq
    names; their bindings are wrapped too.
    """

    def __init__(self, *extra_modules):
        self.extra_modules = extra_modules
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.cells = array("q")
        self.counters = Counter()
        self._elements = [0]
        self._stack = []
        self._patches = []
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, cells=None, before=None, after=None):
        nid = self._id(name)
        start, end, names, parent, cellv = self.start, self.end, self.name, self.parent, self.cells
        stack = self._stack
        owner = self._thread
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if ident() != owner:
                raise RuntimeError("tracing supports one thread only")
            if before is not None:
                before(args)
            i = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            cellv.append(cells(args) if cells is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args):
        """Call fn inside a span, so the layer spans it opens nest under it."""
        return self._wrap(name, fn)(*args)

    def add(self, counter, amount):
        self.counters[counter] += amount

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # A name the program no longer has is skipped, and its metrics read 0.

    def _patch_function(self, module, attr, name, **kw):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original, **kw)
        for mod in _specseq_modules() + list(self.extra_modules):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **kw):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, **kw)))
        else:
            self._set(cls, attr, self._wrap(name, raw, **kw))

    def install(self):
        """Wrap every traced entry point."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in LINALG_OPS:
            if op == "Subspace.spanned_by_columns":
                self._patch_method(
                    Subspace, "spanned_by_columns", "linalg." + op, cells=_spanned_cells
                )
            else:
                self._patch_function(linalg, op, "linalg." + op, cells=_args_cells)
        counters = self.counters
        hits = {
            "entry": _entry_key,
            "cycles": _cycles_key,
            "differential": _differential_key,
        }
        for method in SPECTRAL_METHODS:
            before = None
            if method in hits:
                before = _memo_probe(counters, method, hits[method])
            self._patch_method(
                SpectralSequence, method, "spectral." + method, before=before
            )
        for span, (module, attr) in BUILDER_SPANS.items():
            after = None
            if span in ("simplicial.chains", "filtration.levels"):
                def after(fc, counters=counters):
                    counters["builders.basis_dim"] += _basis_dim(fc)
            self._patch_function(module, attr, span, after=after)
        self._patch_method(FilteredComplex, "validate", "filtration.validate")
        self._patch_function(cli, "run", "cli.run")
        self._patch_function(cli, "parse_scenario", "cli.parse")

        element = getattr(fields, "FieldElement", None)
        if element is not None:
            elements = self._elements
            original_init = element.__dict__["__init__"]

            def counting_init(obj, *args):
                elements[0] += 1
                original_init(obj, *args)

            self._set(element, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds, cells.

        Inclusive time counts a span only when no span of the same name
        encloses it, so recursion is not counted twice.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur[i] - child[i]
            if not self._nested_in_same(i):
                row[2] += dur[i]
            row[3] += self.cells[i]
        counters = Counter(self.counters)
        counters["fields.elements"] += self._elements[0]
        return out, counters

    def _nested_in_same(self, i):
        nid = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self):
        return {
            "names": list(self.names),
            "spans": [
                [self.name[i], self.parent[i], self.start[i], self.end[i], self.cells[i]]
                for i in range(len(self.name))
            ],
        }


def _specseq_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "specseq" or key.startswith("specseq."))
    ]


def _memo_probe(counters, table, key_of):
    lookups = f"spectral.{table}.lookups"
    hits = f"spectral.{table}.hits"

    def probe(args):
        located = key_of(*args[:4])
        if located is None:
            return
        memo, key = located
        counters[lookups] += 1
        if key in memo:
            counters[hits] += 1

    return probe


# The memo keys below restate how SpectralSequence keys its tables, so hits
# can be read from a call's arguments before the call runs.


def _entry_key(ss, r, p, q):
    if r < 0 or not hasattr(ss, "_entries"):
        return None
    return ss._entries, (min(r, ss.r_star), p, q)


def _cycles_key(ss, r, p, q):
    if r <= 0 or not hasattr(ss, "_cycles"):
        return None  # r <= 0 is answered by the filtration layer, no lookup
    fc = ss.source
    floor = fc.p_min - 1
    return ss._cycles, (
        max(min(p, fc.p_max), floor),
        max(min(p - r, fc.p_max), floor),
        p + q,
    )


def _differential_key(ss, r, p, q):
    if r < 1 or not hasattr(ss, "_diffs"):
        return None
    return ss._diffs, (r, p, q)


LAYER_OF = {"linalg": "linalg", "spectral": "spectral", "cli": "cli", "bench": "bench"}


def layer_of(span_name):
    head = span_name.split(".", 1)[0]
    return LAYER_OF.get(head, "builders")


def layer_metrics(parts):
    """Per-layer metrics from [(tracer, weight)]; a weight of 1/k averages k
    identical traced rounds."""
    calls, self_s, incl_s, cells = Counter(), Counter(), Counter(), Counter()
    counters = Counter()
    for tracer, weight in parts:
        summary, counts = tracer.summary()
        for name, (c, s, t, x) in summary.items():
            calls[name] += c * weight
            self_s[name] += s * weight
            incl_s[name] += t * weight
            cells[name] += x * weight
        for key, value in counts.items():
            counters[key] += value * weight
    m = {}
    for op in LINALG_OPS:
        span = "linalg." + op
        m[span + ".calls"] = (calls[span], "count")
        m[span + ".self_s"] = (self_s[span], "s")
        m[span + ".cells"] = (cells[span], "count")
    m["linalg.self_s"] = (sum(self_s["linalg." + op] for op in LINALG_OPS), "s")
    m["linalg.cells"] = (sum(cells["linalg." + op] for op in LINALG_OPS), "count")
    m["fields.elements"] = (counters["fields.elements"], "count")
    for table in MEMO_TABLES:
        lookups = counters[f"spectral.{table}.lookups"]
        hits = counters[f"spectral.{table}.hits"]
        m[f"spectral.{table}.calls"] = (calls["spectral." + table], "count")
        m[f"spectral.{table}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["spectral.self_s"] = (
        sum(v for k, v in self_s.items() if layer_of(k) == "spectral"), "s"
    )
    m["spectral.limit_s"] = (incl_s["spectral.limit_comparison"], "s")
    m["graded.resolution_s"] = (incl_s["graded.resolution"], "s")
    m["graded.expand_s"] = (
        incl_s["graded.koszul"] + incl_s["graded.tensor"] + incl_s["graded.expand"], "s"
    )
    m["simplicial.chains_s"] = (incl_s["simplicial.chains"], "s")
    m["filtration.levels_s"] = (incl_s["filtration.levels"], "s")
    m["filtration.validate_s"] = (incl_s["filtration.validate"], "s")
    m["randomized.generate_s"] = (incl_s["randomized.generate"], "s")
    m["builders.basis_dim"] = (counters["builders.basis_dim"], "count")
    m["builders.self_s"] = (
        sum(v for k, v in self_s.items() if layer_of(k) == "builders"), "s"
    )
    m["cli.parse_s"] = (incl_s["cli.parse"], "s")
    m["cli.self_s"] = (self_s["cli.run"] + self_s["cli.parse"], "s")
    m["cli.out_bytes"] = (counters["cli.out_bytes"], "bytes")
    m["bench.self_s"] = (sum(v for k, v in self_s.items() if layer_of(k) == "bench"), "s")
    m["trace.total_s"] = (
        sum(v for k, v in incl_s.items() if layer_of(k) == "bench"), "s"
    )
    return m
