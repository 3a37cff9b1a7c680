"""Per-layer spans, recorded from outside the library.

`Tracer.install` replaces each traced callable in every `delpezzo` module
that holds it (and on its class, for methods) by a wrapper that records a
span: name, parent span, op id, start, end and whether it raised.  Spans
stay in memory; `Tracer.layer_metrics` turns them into per-layer counts and
self times when the run ends, and `Tracer.uninstall` restores the library.
The counters of the `lru_cache` functions are summed by `collect_caches`,
which the caller runs before every cache clear and once at the end.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

MODULES = ("delpezzo", "exactalg", "singularity", "hilbert", "quiver", "reconstruct", "cli")

# (traced name, stats reported for it); the name is <module>.<attribute path>
TRACED = (
    ("hilbert.dedekind_sum", ("calls", "self_s", "hit_ratio", "cache_entries")),
    ("hilbert.orbifold_contribution", ("calls", "self_s", "hit_ratio")),
    ("exactalg.poly_div_exact", ("calls", "self_s")),
    ("hilbert.split_series", ("calls", "self_s")),
    ("hilbert.assemble_series", ("calls", "self_s")),
    ("exactalg.RationalFunction.make", ("calls", "self_s")),
    ("reconstruct.enumerate_reduced_baskets", ("calls", "self_s", "errors")),
    ("exactalg.int_solve", ("calls", "self_s")),
    ("exactalg.int_kernel", ("calls", "self_s")),
    ("quiver.maximal_shattering", ("calls", "self_s")),
    ("quiver.contains_cancelling_tuple", ("calls", "self_s")),
    ("reconstruct.analyze_series", ("calls", "self_s", "feasible_ratio")),
    ("reconstruct.degree_bounds", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("hilbert.parse_rational_function", ("calls", "self_s")),
    ("quiver.delta_lattice", ("calls", "self_s", "hit_ratio")),
    ("quiver.DeltaLattice.contains", ("calls", "self_s")),
    ("quiver.residual_quiver", ("calls", "self_s")),
    ("singularity.hyperplane_sum", ("calls", "self_s")),
    ("exactalg.int_rank", ("calls", "self_s")),
)

UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "cache_entries": "count",
         "errors": "count", "feasible_ratio": "ratio"}

# span record layout in the flat array
_NAME, _PARENT, _OP, _START, _END, _ERR = range(6)
_WIDTH = 6


class Tracer:
    def __init__(self):
        self.spans = array("d")
        self.stack: list[int] = []
        self.op = 0
        self.choices = [0, 0]  # analyze_series: (choices, feasible choices)
        self._patches: list[tuple] = []
        self._cached = {}
        self._cache_totals = {}  # name -> [hits, misses, peak entries]

    def install(self) -> None:
        modules = [importlib.import_module(m if m == "delpezzo" else f"delpezzo.{m}") for m in MODULES]
        for nid, (name, _) in enumerate(TRACED):
            mod_name, *path = name.split(".")
            owner = importlib.import_module(f"delpezzo.{mod_name}")
            if len(path) == 2:  # a method: patch it on its class
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, nid, name)
                self._patches.append((cls, path[1], raw))
                setattr(cls, path[1], staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            fn = getattr(owner, path[0])
            if hasattr(fn, "cache_info"):
                self._cached[name] = fn
            wrapped = self._wrap(fn, nid, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, nid, name):
        spans, stack = self.spans, self.stack
        counts_choices = name == "reconstruct.analyze_series"

        def traced(*args, **kwargs):
            i = len(spans)
            # one extend call, so a deadline signal cannot split the record
            spans.extend((nid, stack[-1] if stack else -1, self.op, perf_counter(), 0.0, 0.0))
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                spans[i + _ERR] = 1.0
                raise
            finally:
                spans[i + _END] = perf_counter()
                stack.pop()
            if counts_choices:
                self.choices[0] += len(result.per_choice)
                self.choices[1] += sum(c.verdict == "Feasible" for c in result.per_choice)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.spans) // _WIDTH

    def collect_caches(self) -> None:
        """Add the cache counters since the last clear; call before clearing."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            tot = self._cache_totals.setdefault(name, [0, 0, 0])
            tot[0] += info.hits
            tot[1] += info.misses
            tot[2] = max(tot[2], info.currsize)

    def end_op(self, first_span: int) -> None:
        """Close spans an interrupted op left open and reset the stack."""
        now = perf_counter()
        for i in range(first_span, len(self.spans), _WIDTH):
            if self.spans[i + _END] == 0.0:
                self.spans[i + _END] = now
        self.stack.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics named <module>.<function>.<stat>."""
        s = self.spans
        n = self.span_count()
        child = [0.0] * n
        for k in range(n):
            parent = int(s[k * _WIDTH + _PARENT])
            if parent >= 0:
                child[parent // _WIDTH] += s[k * _WIDTH + _END] - s[k * _WIDTH + _START]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        errors = [0] * len(TRACED)
        for k in range(n):
            base = k * _WIDTH
            nid = int(s[base + _NAME])
            calls[nid] += 1
            self_s[nid] += s[base + _END] - s[base + _START] - child[k]
            errors[nid] += int(s[base + _ERR])
        out = {}
        for nid, (name, stats) in enumerate(TRACED):
            hits, misses, entries = self._cache_totals.get(name, (0, 0, 0))
            values = {
                "calls": calls[nid],
                "self_s": self_s[nid],
                "errors": errors[nid],
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "cache_entries": entries,
                "feasible_ratio": self.choices[1] / self.choices[0] if self.choices[0] else 0.0,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
        return out
