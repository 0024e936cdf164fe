"""Span recorder for traced runs: wraps sepmult's public functions in place.

A wrapped function records one span per call (name, start, end, parent) and
a call count; a counted function only counts, for functions called so often
that a span per call would cost more than the work it times.  Self time is a
span's duration minus the time covered by its child spans.  Totals are kept
per phase ("setup" or "round"), so that per-layer figures can be given per
set-up and per round.  Spans stay in memory until the run writes them out.
"""

import sys
import time
from collections import defaultdict

#: (module, function, mode): "span" records spans, "count" only counts calls
TRACED = (
    ("cli", "main", "span"),
    ("verify", "run_suite", "span"),
    ("classify", "classify_fourier", "span"),
    ("classify", "classify_schur", "span"),
    ("classify", "separating_test", "span"),
    ("classify", "deterministic_probes", "span"),
    ("classify", "isometry_test", "span"),
    ("classify", "fourier_multiplier_map", "span"),
    ("classify", "schur_multiplier_map", "span"),
    ("classify", "random_disjoint_pair_matrix", "span"),
    ("classify", "yeadon_extract", "span"),
    ("classify", "positive_definite_test", "span"),
    ("groups", "builtin_group", "span"),
    ("groups", "enumerate_characters", "span"),
    ("groups", "fit_scalar_character", "span"),
    ("schur", "rank_one_unimodular_factor", "span"),
    ("schur", "herz_schur_symbol", "span"),
    ("vna", "random_disjoint_pair", "span"),
    ("vna", "random_projection_pair", "count"),
    ("vna", "disjointness_defect", "count"),
    ("linalg", "hermitian_eig", "span"),
    ("linalg", "schatten_norm", "span"),
    ("linalg", "singular_values", "span"),
    ("linalg", "svd", "count"),
    ("linalg", "frobenius", "count"),
)


class Recorder:
    """Spans, call counts, self and total times, keyed by (phase, name)."""

    def __init__(self):
        self.phase = "setup"
        self.spans = []
        self._open = []       # indices of the open spans, innermost last
        self._child_s = []    # time covered by children of each open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.values = defaultdict(float)   # counts derived from results
        self.maxima = defaultdict(float)
        self.hooks = {}

    def span(self, name, fn):
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child = self._child_s.pop()
                duration = end - start
                if self._child_s:
                    self._child_s[-1] += duration
                self.spans[index] = (name, start, end, parent, self.phase)
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_s[key] += duration - child
                self.total_s[key] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name, amount):
        self.values[(self.phase, name)] += amount

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def install(self):
        """Wrap every traced function in each sepmult module that holds it.

        Call after every (re-)import of sepmult: the wrappers replace the
        module attributes, which is where callers look the functions up.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sepmult" or key.startswith("sepmult.")]
        for module_name, func_name, mode in TRACED:
            home = sys.modules.get("sepmult." + module_name)
            if home is None:
                continue
            original = getattr(home, func_name)
            name = "%s.%s" % (module_name, func_name)
            wrapped = (self.span if mode == "span" else self.count)(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapped)

    def per_unit(self, table, name, setups, rounds):
        """Mean over set-ups plus mean over rounds of a per-phase total."""
        return (table[("setup", name)] / max(setups, 1)
                + table[("round", name)] / max(rounds, 1))

    def dump(self):
        return {"spans": [list(s) for s in self.spans]}
