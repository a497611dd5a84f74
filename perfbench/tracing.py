"""Spans around zetalab's layer boundaries, recorded from outside the package.

`Tracer.install` wraps each function in TRACED at every binding it has in
the loaded zetalab modules: the defining module's attribute, every
`from ... import` copy in another module, and the class attribute for
methods.  Spans are kept in memory as [name, start, end, parent, root];
the benchmark opens one root span per job.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) of every traced function; metrics are named
# "<module>.<attribute>.calls" and "<module>.<attribute>.self_s"
TRACED = (
    ("cli", "main"),
    ("exact", "Series.exp"),
    ("exact", "Series.log"),
    ("exact", "Series.inverse"),
    ("ffield", "count_points"),
    ("ffield", "group_structure"),
    ("artin", "reciprocity_check"),
    ("bundles", "strata_census"),
    ("bundles", "mass_recursion_beta"),
    ("nazeta", "ell_na_zeta"),
    ("nazeta", "na_counts"),
    ("nazeta", "allbundles_rank2"),
    ("nazeta", "ap_fast"),
    ("nazeta", "global_na_zeta_partial"),
    ("lattice", "dual"),
    ("lattice", "shortest_vector"),
    ("lattice", "is_semistable"),
    ("lattice", "hn_filtration"),
    ("lattice", "theta_h0"),
    ("lattice", "xi_q"),
    ("explicit", "ff_explicit_formula_check"),
    ("explicit", "ff_positivity"),
    ("explicit", "ff_hodge_defect"),
    ("explicit", "global_pairing"),
    ("explicit", "riemann_weil_residual"),
)
# spans whose self time is also reported per input band of the job (the
# job's band up to its first ".")
BANDED = {
    "lattice.hn_filtration": ("low_skew", "skewed"),
    "ffield.count_points": ("ext",),
}
ROOT = "job"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr in TRACED:
        out += [(f"{module}.{attr}.calls", "count"), (f"{module}.{attr}.self_s", "s")]
    out += [(f"{name}.{band}.self_s", "s") for name, bands in BANDED.items() for band in bands]
    out.append(("trace_overhead_frac", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.root_tags: dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a span opened on a worker thread (the Euler loop's pool) hangs
        # under whatever the job's own thread has open
        outer = stack or self._root_stack
        parent = outer[-1] if outer else None
        span = [name, 0.0, None, parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        span[4] = self.spans[parent][4] if parent is not None else index
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def open_job(self, tag: str) -> int:
        self._root_stack = self._stack()
        index = self.open(ROOT)
        self.root_tags[index] = tag
        return index

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "zetalab" or n.startswith("zetalab.")) and m is not None]
        for module, attr in TRACED:
            owner = sys.modules[f"zetalab.{module}"]
            leaf = attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(owner, cls)
            original = vars(owner)[leaf]
            traced = self._wrap(f"{module}.{attr}", original)
            self._rebind(owner, leaf, traced)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, binding, traced)

    def _rebind(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def per_layer(self) -> dict[str, float]:
        """calls and self time per traced name, plus the banded split."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(i)
        totals: dict[str, float] = {}
        for module, attr in TRACED:
            totals[f"{module}.{attr}.calls"] = 0
            totals[f"{module}.{attr}.self_s"] = 0.0
        for name, bands in BANDED.items():
            for band in bands:
                totals[f"{name}.{band}.self_s"] = 0.0
        for i, (name, start, end, _, root) in enumerate(self.spans):
            if name == ROOT:
                continue
            own = end - start - _covered(start, end, [self.spans[c] for c in children[i]])
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own
            band = self.root_tags.get(root, "").split(".")[0]
            if band in BANDED.get(name, ()):
                totals[f"{name}.{band}.self_s"] += own
        return totals


def _covered(start: float, end: float, spans: list[list]) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    intervals = sorted((max(start, s[1]), min(end, s[2])) for s in spans)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
