"""Per-layer counts and self times for one traced round.

The layers are regopen's modules. Each is timed from outside: ``install``
replaces the public functions and methods listed in ``SPANS`` at every
module attribute the program calls them through (``regopen.suites`` calls
``regular_open_lattice`` through its own import of the name, for example),
and at the class for methods. Untraced rounds never import this module, so
they run with no wrappers at all.

A layer's self time is the time spent inside its spans minus the time spent
in spans of other layers entered from them. A call made while the same layer
is already on top of the stack (``closure_mask`` calling ``interior_mask``)
is counted but not timed again, which keeps the cost of tracing the hot
operators down.
"""

from __future__ import annotations

import sys
import time

clock = time.perf_counter

# (layer, module, attribute, call counter or None). A dotted attribute
# names a method of a class in that module.
SPANS = (
    ("topology.init", "regopen.topology", "Topology.__init__", "topology.init_calls"),
    ("topology.operators", "regopen.topology", "Topology.interior_mask", "topology.interior_calls"),
    ("topology.operators", "regopen.topology", "Topology.closure_mask", "topology.closure_calls"),
    ("topology.operators", "regopen.topology", "Topology.regularize_mask", "topology.regularize_calls"),
    ("topology.subspace", "regopen.topology", "Topology.subspace", "topology.subspace_calls"),
    ("topology.canonical", "regopen.topology", "canonical_open_masks", "topology.canonical_calls"),
    ("enumeration.dense", "regopen.enumeration", "enumerate_dense_subsets", "enumeration.dense_calls"),
    ("lattice.law_checks", "regopen.lattice", "check_boolean_algebra", None),
    ("lattice.law_checks", "regopen.lattice", "check_distributive", None),
    ("lattice.law_checks", "regopen.lattice", "check_lattice_tables", None),
    ("lattice.r_lattice", "regopen.lattice", "check_r_lattice", None),
    ("lattice.r_lattice", "regopen.lattice", "ge_relation", None),
    ("lattice.r_lattice", "regopen.lattice", "wallman_disjunction", None),
    ("lattice.well_inside", "regopen.lattice", "well_inside", None),
    ("transfer.embedding", "regopen.transfer", "DenseEmbedding.__init__", "transfer.embeddings"),
    ("transfer.restriction_iso", "regopen.transfer", "restriction_isomorphism", "transfer.restriction_isos"),
    ("transfer.density", "regopen.transfer", "closure_density_check", None),
    ("transfer.separating", "regopen.transfer", "separating_witness", None),
    ("transfer.recovery", "regopen.transfer", "point_recovery", None),
    ("stone.stone_space", "regopen.stone", "stone_space", "stone.calls"),
)

OUTSIDE = "untraced"


class Tracer:
    def __init__(self):
        self.cells: dict[str, list[int]] = {}
        self.self_s: dict[str, float] = {OUTSIDE: 0.0}
        self.inclusive_s: dict[str, float] = {}
        self.lattice_spaces: set = set()
        self._stack = [OUTSIDE]
        self._mark = [clock()]

    def counter(self, name: str) -> list[int]:
        """A one-element list holding a count; cheaper to bump than a dict entry."""
        return self.cells.setdefault(name, [0])

    # -- spans ------------------------------------------------------------------

    def span(self, fn, layer: str, counter: str | None):
        cell = self.counter(counter) if counter else [0]
        self_s, stack, mark = self.self_s, self._stack, self._mark
        self_s.setdefault(layer, 0.0)

        def traced(*args, **kwargs):
            cell[0] += 1
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_s[stack[-1]] += now - mark[0]
            mark[0] = now
            stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now

        return traced

    def operator_span(self, fn, layer: str, counter: str):
        """``span`` for the hot Topology operators, which take (self, mask).

        A fixed signature halves the wrapper's own cost against *args.
        """
        cell = self.counter(counter)
        self_s, stack, mark = self.self_s, self._stack, self._mark
        self_s.setdefault(layer, 0.0)

        def traced(topology, mask):
            cell[0] += 1
            if stack[-1] == layer:
                return fn(topology, mask)
            now = clock()
            self_s[stack[-1]] += now - mark[0]
            mark[0] = now
            stack.append(layer)
            try:
                return fn(topology, mask)
            finally:
                now = clock()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now

        return traced

    def generator_span(self, fn, layer: str):
        """Span around each step of a generator: its work happens in next()."""
        runs, spaces = self.counter("enumeration.runs"), self.counter("enumeration.spaces")
        self_s, stack, mark = self.self_s, self._stack, self._mark
        self_s.setdefault(layer, 0.0)

        def traced(*args, **kwargs):
            runs[0] += 1
            it = fn(*args, **kwargs)
            while True:
                now = clock()
                self_s[stack[-1]] += now - mark[0]
                mark[0] = now
                stack.append(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    now = clock()
                    self_s[stack.pop()] += now - mark[0]
                    mark[0] = now
                spaces[0] += 1
                yield item

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; regopen and all its modules must be imported."""
        import regopen.enumeration
        import regopen.lattice
        import regopen.serialize
        import regopen.suites

        for layer, module, attr, counter in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                make = self.operator_span if layer == "topology.operators" else self.span
                setattr(cls, method, make(getattr(cls, method), layer, counter))
            else:
                fn = getattr(owner, attr)
                _replace(fn, self.span(fn, layer, counter))

        cls = regopen.lattice.RegularOpenLattice
        build = self.span(cls.__init__, "lattice.build", "lattice.builds")
        spaces = self.lattice_spaces

        def lattice_init(lat, topology):
            spaces.add((topology.n, topology.open_masks))
            build(lat, topology)

        cls.__init__ = lattice_init

        fn = regopen.enumeration.enumerate_topologies
        _replace(fn, self.generator_span(fn, "enumeration.enumerate"))

        fn = regopen.serialize.canonical_json
        encode = self.span(fn, "serialize.canonical_json", None)
        report_bytes = self.counter("serialize.report_bytes")

        def canonical_json(obj):
            text = encode(obj)
            report_bytes[0] += len(text.encode())
            return text

        _replace(fn, canonical_json)

        run_suite = regopen.suites.run_suite
        inclusive = self.inclusive_s

        def traced_run_suite(name, *args, **kwargs):
            start = clock()
            report = run_suite(name, *args, **kwargs)
            total = clock() - start
            self.counter(f"suites.{name}.instances")[0] += report.instances
            for phase, seconds in (("check_s", report.wall_time_s), ("build_s", total - report.wall_time_s)):
                key = f"suites.{name}.{phase}"
                inclusive[key] = inclusive.get(key, 0.0) + seconds
            return report

        _replace(run_suite, traced_run_suite)

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, self times (``<layer>_s``) and the suites' own phase times."""
        now = clock()
        self.self_s[self._stack[-1]] += now - self._mark[0]
        self._mark[0] = now
        out: dict[str, float] = {name: cell[0] for name, cell in self.cells.items()}
        out.update({f"{layer}_s": s for layer, s in self.self_s.items()})
        out.update(self.inclusive_s)
        builds = out["lattice.builds"]
        out["lattice.builds_per_space"] = builds / len(self.lattice_spaces) if builds else 0.0
        return out


def _replace(original, wrapper) -> None:
    """Point every regopen module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name != "regopen" and not name.startswith("regopen."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
