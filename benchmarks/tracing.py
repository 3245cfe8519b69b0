"""Span recording around the calls one spin7flow layer makes into another.

The tracer never edits the package.  It swaps module-level bindings
(for example ``shooting.solve_ivp`` or ``polycert.slice``) for timing
wrappers while installed and puts the originals back on uninstall.

Coarse calls become spans: (name, start, end, parent, item, self time),
where self time is the span's duration minus the time its child spans
and leaf calls cover.  Fine-grained calls that run thousands of times
per item (right-hand side evaluations, per-sample residuals, Sturm
counts) are leaves: only their count and total time are kept, and their
time is charged to the enclosing span as child time.
"""

import json
from collections import defaultdict
from time import perf_counter


def _reconstruct_name(args, kwargs):
    traj = args[0] if args else kwargs.get("traj")
    dense = getattr(traj, "dense", ())
    return ("shooting.reconstruct_dense" if dense
            else "shooting.reconstruct_samples")


def _root_fn_name(args, kwargs):
    which = args[1] if len(args) > 1 else kwargs.get("which")
    return "polycert.root_fn.%s" % which


class Tracer:
    """Swaps layer bindings for timing wrappers and keeps spans in memory."""

    def __init__(self, modules):
        self._modules = modules
        self._saved = []
        self._stack = []
        self.item = None
        self.spans = []
        self.leaf_calls = defaultdict(int)
        self.leaf_seconds = defaultdict(float)
        self.counts = defaultdict(int)

    # -- bindings ----------------------------------------------------------

    def bindings(self):
        """(module, attribute, replacement) for every swapped binding.

        Attributes a later version of the package no longer has are
        skipped, so the tracer degrades to fewer spans instead of
        failing.
        """
        sh = self._modules["shooting"]
        cp = self._modules["critical_points"]
        pc = self._modules["polycert"]
        rp = self._modules["ratpoly"]
        plan = [
            (sh, "integrate", self._span("shooting.integrate",
                                         on_result=self._count_samples)),
            (sh, "initial_state", self._span("shooting.initial_state")),
            (sh, "classify", self._span("shooting.classify")),
            (sh, "solve_ivp", self._span("shooting.solve_ivp")),
            (sh, "reconstruct_metric", self._span(_reconstruct_name)),
            (sh, "residuals", self._leaf("phase_system.residuals")),
            (sh, "x_from_z", self._leaf("phase_system.x_from_z")),
            (sh, "reduced_z_rhs", self._factory("phase_system.rhs")),
            (sh, "flow_rhs", self._factory("phase_system.rhs")),
            (sh, "_dense_g", self._factory("shooting.g_eval", timed=False)),
            (sh, "catalog", self._span("critical_points.catalog")),
            (sh, "unstable_frame",
             self._span("critical_points.unstable_frame")),
            (cp, "catalog", self._span("critical_points.catalog")),
            (cp, "eigen", self._span("critical_points.eigen")),
            (cp, "reference_frame",
             self._span("critical_points.reference_frame")),
            (pc, "rtilde", self._span("polycert.rtilde")),
            (pc, "slice", self._span("polycert.slice")),
            (pc, "root_fn", self._span(_root_fn_name)),
            (pc, "certify_ray_resultant",
             self._span("polycert.certify_ray_resultant")),
            (pc, "sylvester_resultant",
             self._span("ratpoly.sylvester_resultant")),
            (pc, "certify_nonneg",
             self._span("ratpoly.certify_nonneg",
                        on_result=self._count_boxes)),
            (pc, "smallest_root_in_interval",
             self._span("ratpoly.root_isolation")),
            (rp, "count_distinct_roots", self._leaf("ratpoly.sturm_count")),
        ]
        return [(mod, attr, make) for mod, attr, make in plan
                if hasattr(mod, attr)]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod, attr, make in self.bindings():
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                record = [label, 0.0, 0.0,
                          self._stack[-1][0] if self._stack else -1,
                          self.item, 0.0]
                index = len(self.spans)
                self.spans.append(record)
                frame = [index, 0.0]
                self._stack.append(frame)
                record[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    self._stack.pop()
                    duration = record[2] - record[1]
                    record[5] = duration - frame[1]
                    if self._stack:
                        self._stack[-1][1] += duration
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    def _leaf(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self.leaf_calls[name] += 1
                    self.leaf_seconds[name] += duration
                    if self._stack:
                        self._stack[-1][1] += duration
            return wrapper
        return make

    def _counter(self, name):
        """Count calls only, for callables that contain timed leaves."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.leaf_calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _factory(self, name, timed=True):
        """Wrap a function that returns a callable; time or count the
        callable."""
        leaf = self._leaf(name) if timed else self._counter(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return leaf(fn(*args, **kwargs))
            return wrapper
        return make

    def _count_samples(self, traj):
        self.counts["shooting.samples"] += len(traj.etas)

    def _count_boxes(self, cert):
        self.counts["ratpoly.boxes_processed"] += cert.boxes_processed

    # -- results -----------------------------------------------------------

    def total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_total(self, name):
        return sum(s[5] for s in self.spans if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def write_spans(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, item, own in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "self": own}) + "\n")


def merge(tracers):
    """One tracer holding the spans, leaves and counts of several."""
    out = Tracer(None)
    for t in tracers:
        offset = len(out.spans)
        for name, start, end, parent, item, own in t.spans:
            out.spans.append([name, start, end,
                              parent + offset if parent >= 0 else -1,
                              item, own])
        for table, other in ((out.leaf_calls, t.leaf_calls),
                             (out.leaf_seconds, t.leaf_seconds),
                             (out.counts, t.counts)):
            for key, value in other.items():
                table[key] += value
    return out


def assert_pristine(modules, reference):
    """Raise unless every binding the tracer swaps is the original.

    reference maps (module name, attribute) to the object captured
    before any tracer was installed.
    """
    for (mod_name, attr), original in reference.items():
        if getattr(modules[mod_name], attr) is not original:
            raise RuntimeError("binding %s.%s is still swapped"
                               % (mod_name, attr))


def capture_bindings(modules):
    """The original object behind every binding a Tracer would swap."""
    names = {id(mod): name for name, mod in modules.items()}
    return {(names[id(mod)], attr): getattr(mod, attr)
            for mod, attr, _ in Tracer(modules).bindings()}
