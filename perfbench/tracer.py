"""Per-layer tracer that wraps ealie's public functions from the outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each traced
function or method with a wrapper in every place the program looks it up (the
defining class, the defining module, and every ``ealie`` module that imported
the name directly), and ``Tracer.uninstall`` puts every original back.

Three kinds of wrapper, chosen by how often the boundary is crossed:

* ``span``: stage- and suite-level calls. Each call is recorded as a span
  (name, start, end, parent span) kept in memory.
* ``timed``: mid-frequency layer calls. Aggregated call count, self time
  (own time minus the time of nested timed or span calls) and outermost
  inclusive time.
* ``counted``: high-frequency calls (scalar arithmetic, window membership).
  A call count only; timing a million scalar calls would distort the split.
  Scalar multiplies also keep a seeded uniform sample of their operands, and
  ``replay_ns`` times the multiply on that sample after the run.
"""

import math
import random
import sys
import time
from collections import defaultdict

# name -> [(owner, attribute names)]. An owner is a module or a "module:Class"
# path under ealie.
SPANS = {
    "verdict": [("cli", ["main"])],
    "decompose_window": [("decomp", ["decompose_window"])],
    "core_and_center": [("decomp", ["core_and_center_window"])],
    "T": [("axioms", ["check_T"])],
    "D": [("axioms", ["check_D"])],
    "SERRE": [("axioms", ["serre_check"])],
    "TAME": [("axioms", ["tameness_check"])],
    "PROPS": [("axioms", ["check_props"])],
    "EARS": [("ears", ["check_ears_axioms", "support_checks"])],
}

TIMED = {
    "quantum_torus.mul": [("quantum_torus:TorusElement", ["__mul__"])],
    "matlie.matmul": [("matlie:LieElement", ["__matmul__"])],
    "matlie.trace_form": [("matlie", ["trace_form"])],
    "constructions.bracket": [
        ("constructions:TorusMatrixAlgebra", ["bracket"]),
        ("constructions:AffinizedAlgebra", ["bracket"]),
        ("constructions:SqrtExtensionAlgebra", ["bracket"]),
        ("constructions:CocycleExtensionAlgebra", ["bracket"]),
    ],
    "constructions.form": [
        ("constructions:TorusMatrixAlgebra", ["form"]),
        ("constructions:AffinizedAlgebra", ["form"]),
        ("constructions:SqrtExtensionAlgebra", ["form"]),
    ],
    "constructions.root_piece": [
        ("constructions:TorusMatrixAlgebra", ["root_piece"]),
        ("constructions:AffinizedAlgebra", ["root_piece"]),
        ("constructions:SqrtExtensionAlgebra", ["root_piece"]),
    ],
    "finroot.root_string": [("finroot", ["root_string"])],
    "linalg.spandict_add": [("linalg:SpanDict", ["add"])],
    "linalg.solve": [("linalg", ["solve_dense", "nullspace_dense"])],
    "kernel": [("kernel", ["kappa", "g_cocycle", "structure_constant", "int_echelon", "int_rank"])],
}

_ARITH = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__"]
COUNTED = {
    "exact_arith.gauss": [("exact_arith:GaussianRational", _ARITH)],
    "exact_arith.sqrt": [("exact_arith:SqrtFieldElement", _ARITH)],
    "decomp.member": [("decomp:RootSystemWindow", ["member"])],
}

# Modules that implement the kernel: calls inside them are not calls into it.
_KERNEL_IMPLS = ("ealie._kernel", "ealie._kernel_py")
SAMPLE_CAP = 2048
AXIOM_SUITES = ("T", "D", "SERRE", "TAME", "PROPS")
# Timed layers reported as <name>_calls and <name>_self_s.
SELF_TIMED = ("quantum_torus.mul", "matlie.matmul", "matlie.trace_form", "constructions.bracket",
              "constructions.form", "finroot.root_string", "linalg.spandict_add", "linalg.solve")
PER_LAYER = (
    [("exact_arith.gauss_ops", "count"), ("exact_arith.sqrt_ops", "count"),
     ("exact_arith.gauss_mul_ns", "ns"), ("exact_arith.sqrt_mul_ns", "ns")]
    + [(f"{layer}_{kind}", unit)
       for layer in SELF_TIMED for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("constructions.root_piece_calls", "count"), ("constructions.root_piece_s", "s"),
       ("decomp.decompose_window_s", "s"), ("decomp.core_and_center_s", "s"),
       ("decomp.basis_bracket_calls", "count"), ("decomp.basis_bracket_distinct", "count"),
       ("decomp.basis_bracket_repeat_ratio", "ratio"), ("decomp.member_calls", "count"),
       ("linalg.spandict_growths", "count"), ("linalg.spandict_growth_ratio", "ratio"),
       ("kernel.calls", "count"), ("kernel.self_s", "s")]
    + [(f"axioms.{suite}_s", "s") for suite in AXIOM_SUITES]
    + [("axioms.T1_triples_checked", "count"), ("ears.EARS_s", "s"),
       ("trace.verdict_traced_s", "s"), ("trace.verdict_untraced_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.hits = 0


class _Reservoir:
    """Uniform sample of at most ``cap`` items from a stream (Li's Algorithm L).

    Between replacements it only compares a counter, so it is cheap enough to
    sit on every scalar multiply.
    """

    __slots__ = ("cap", "rng", "items", "seen", "next", "w")

    def __init__(self, cap, rng):
        self.cap = cap
        self.rng = rng
        self.items = []
        self.seen = 0
        self.next = cap
        self.w = 1.0

    def offer(self, item):
        self.seen += 1
        if self.seen <= self.cap:
            self.items.append(item)
            if self.seen == self.cap:
                self._advance()
        elif self.seen == self.next:
            self.items[self.rng.randrange(self.cap)] = item
            self._advance()

    def _advance(self):
        rng = self.rng
        self.w *= math.exp(math.log(1.0 - rng.random()) / self.cap)
        self.next += int(math.log(1.0 - rng.random()) / math.log1p(-self.w)) + 1


class Tracer:
    """Wraps ealie's layer boundaries while installed; read results with ``metrics``."""

    def __init__(self, seed):
        self.stats = defaultdict(_Stat)
        self.spans = []
        self.samples = {name: _Reservoir(SAMPLE_CAP, random.Random(f"{seed}:{name}"))
                        for name in COUNTED if name.startswith("exact_arith.")}
        self._stack = []        # self-time accumulators of the open timed calls
        self._span_stack = []   # ids of the open spans
        self._patches = []      # (owner object, attribute, original)
        self._basis_ids = {}    # id(window basis vector) -> index
        self._windows = []      # keeps every traced window (and its basis ids) alive
        self._pairs = set()
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANS, self._span), (TIMED, self._timed), (COUNTED, self._counted)):
            for name, targets in table.items():
                for owner_path, attrs in targets:
                    owner = _resolve(owner_path)
                    for attr in attrs:
                        self._patch(owner, attr, make(name, vars(owner)[attr]))
        window_cls = _resolve("decomp:RootSystemWindow")
        self._patch(window_cls, "bracket", self._basis_bracket(vars(window_cls)["bracket"]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._windows.clear()
        self._basis_ids.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper):
        """Replace ``owner.attr`` and every module-level alias of the same object."""
        original = vars(owner)[attr]
        if isinstance(owner, type):
            places = [(owner, attr)]
        else:
            places = [(module, key)
                      for name, module in sorted(sys.modules.items())
                      if (name == "ealie" or name.startswith("ealie.")) and name not in _KERNEL_IMPLS
                      for key, value in vars(module).items() if value is original]
        for place, key in places:
            self._patches.append((place, key, original))
            setattr(place, key, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        on_result = self._spandict_growth if name == "linalg.spandict_add" else None

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dt
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(stat, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _spandict_growth(stat, grew):
        if grew:
            stat.hits += 1

    def _span(self, name, fn):
        timed = self._timed(name, fn)
        spans = self._span_stack
        clock = time.perf_counter
        register = self._register_window if name == "decompose_window" else None

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {"id": span_id, "parent": spans[-1] if spans else None,
                      "name": name, "start": clock() - self._t0, "end": None}
            self.spans.append(record)
            spans.append(span_id)
            try:
                result = timed(*args, **kwargs)
            finally:
                spans.pop()
                record["end"] = clock() - self._t0
            if register is not None:
                register(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        stat = self.stats[name]
        sample = self.samples.get(name)
        if sample is not None and fn.__name__ == "__mul__":
            offer = sample.offer

            def wrapper(a, b):
                stat.calls += 1
                offer((a, b))
                return fn(a, b)
        else:
            def wrapper(*args):
                stat.calls += 1
                return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _register_window(self, win):
        self._windows.append(win)
        ids = self._basis_ids
        for root in sorted(win.pieces):
            for x in win.pieces[root].basis:
                ids.setdefault(id(x), len(ids))

    def _basis_bracket(self, fn):
        stat = self.stats["decomp.basis_bracket"]
        ids = self._basis_ids
        pairs = self._pairs

        def wrapper(win, x, y):
            ix = ids.get(id(x))
            if ix is not None:
                iy = ids.get(id(y))
                if iy is not None:
                    stat.calls += 1
                    pairs.add((ix, iy))
            return fn(win, x, y)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def replay_ns(self, name, seed, count=1000, repeats=7):
        """Median nanoseconds per multiply over sampled operands of one scalar type."""
        items = self.samples[name].items
        if not items:
            return 0.0
        rng = random.Random(seed)
        picked = [items[rng.randrange(len(items))] for _ in range(count)]
        clock = time.perf_counter_ns
        per_op = []
        for _ in range(repeats):
            t0 = clock()
            for a, b in picked:
                a * b
            per_op.append((clock() - t0) / count)
        return sorted(per_op)[repeats // 2]

    def metrics(self, seed, traced_s, untraced_s, t1_triples):
        """Every per-layer metric as {name: (value, unit)}; wrappers must be removed first."""
        if self._patches:
            raise RuntimeError("uninstall the tracer before reading metrics")
        stats = self.stats
        out = {
            "exact_arith.gauss_ops": stats["exact_arith.gauss"].calls,
            "exact_arith.sqrt_ops": stats["exact_arith.sqrt"].calls,
            "exact_arith.gauss_mul_ns": self.replay_ns("exact_arith.gauss", seed),
            "exact_arith.sqrt_mul_ns": self.replay_ns("exact_arith.sqrt", seed),
        }
        for layer in SELF_TIMED:
            out[f"{layer}_calls"] = stats[layer].calls
            out[f"{layer}_self_s"] = stats[layer].self_s
        root_piece = stats["constructions.root_piece"]
        basis = stats["decomp.basis_bracket"]
        adds = stats["linalg.spandict_add"]
        out.update({
            "constructions.root_piece_calls": root_piece.calls,
            "constructions.root_piece_s": root_piece.incl_s,
            "decomp.decompose_window_s": stats["decompose_window"].incl_s,
            "decomp.core_and_center_s": stats["core_and_center"].incl_s,
            "decomp.basis_bracket_calls": basis.calls,
            "decomp.basis_bracket_distinct": len(self._pairs),
            "decomp.basis_bracket_repeat_ratio":
                (basis.calls - len(self._pairs)) / basis.calls if basis.calls else 0.0,
            "decomp.member_calls": stats["decomp.member"].calls,
            "linalg.spandict_growths": adds.hits,
            "linalg.spandict_growth_ratio": adds.hits / adds.calls if adds.calls else 0.0,
            "kernel.calls": stats["kernel"].calls,
            "kernel.self_s": stats["kernel"].self_s,
        })
        for suite in AXIOM_SUITES:
            out[f"axioms.{suite}_s"] = stats[suite].incl_s
        out.update({
            "axioms.T1_triples_checked": t1_triples,
            "ears.EARS_s": stats["EARS"].incl_s,
            "trace.verdict_traced_s": traced_s,
            "trace.verdict_untraced_s": untraced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        })
        return {name: (out[name], unit) for name, unit in PER_LAYER}


def _resolve(path):
    module_name, _, cls_name = path.partition(":")
    module = sys.modules[f"ealie.{module_name}"]
    return getattr(module, cls_name) if cls_name else module
