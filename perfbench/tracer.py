"""Span tracer that wraps the library's public functions from outside.

Every call into a wrapped function records a span: name, start, end,
parent span and query id. A span's self time is its duration minus the
time its child spans cover. Counts are computed from each call's
arguments and result, so no file of the library changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path

# PermutationGroup method -> layer name under "perms."
PERM_METHODS = {
    "__init__": "group_init", "close": "close",
    "pointwise_stabilizer": "pointwise_stabilizer",
    "small_generating_set": "small_generating_set", "tuple_orbit": "tuple_orbit",
    "orbit": "orbit", "is_transitive": "is_transitive",
    "subgroup_equals": "subgroup_equals", "min_generating_size": "min_generating_size",
}
FUNCTIONS = {
    "graphs": ("automorphism_group", "verify_automorphisms", "local_group"),
    "walks": ("shunts", "successors", "successor_count", "enumerate_consistent_cycles",
              "partition_cycles", "consistent_cycle_orbits"),
    "reachability": ("reachability_by_chase", "reachability_by_shunt_group",
                     "check_conditions", "certify_trivial_stabilizer"),
    "localactions": ("find_trivial_walk_exhaustive", "find_trivial_walk_wps",
                     "find_trivial_walk_4valent", "weakly_p_subregular"),
    "products": ("blowup_cycle_family",),
    "generation": ("verify_generation", "overlap_maximal_representatives", "orbit_overlap"),
    "cli": ("parse_inputs", "run", "main"),
}
SPAN_NAMES = tuple(f"perms.{short}" for short in PERM_METHODS.values()) + tuple(
    f"{module}.{name}" for module, names in FUNCTIONS.items() for name in names)

# Counts taken at the boundary, from (args, result) of a call that returned.
COUNTERS = {
    # |G| of the receiver: the chained filter starts with a full scan
    "perms.pointwise_stabilizer": lambda a, r: {"elements_scanned": len(a[0].elements)},
    "perms.close": lambda a, r: {"elements": len(r.elements)},
    "graphs.automorphism_group": lambda a, r: {"leaves": len(r.elements)},
    "graphs.verify_automorphisms": lambda a, r: {"perms_checked": len(a[1])},
    "walks.shunts": lambda a, r: {"elements_scanned": len(a[0].elements),
                                  "returned": len(r)},
    "walks.enumerate_consistent_cycles": lambda a, r: {"cycles": len(r)},
}
COUNT_NAMES = ("perms.pointwise_stabilizer.elements_scanned", "perms.close.elements",
               "graphs.automorphism_group.leaves", "graphs.verify_automorphisms.perms_checked",
               "walks.shunts.elements_scanned", "walks.enumerate_consistent_cycles.cycles")


class Tracer:
    """Spans and counts of one process; ``query`` tags the spans that start.

    Spans tagged with a query id >= 0 belong to the timed pass; the others
    belong to set-up.
    """

    def __init__(self):
        self.query = -1
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, query)
        self.counts: dict[tuple[bool, str], int] = {}   # (in pass, count name) -> total
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.query))
            if counter is not None:
                for key, value in counter(args, result).items():
                    slot = (self.query >= 0, f"{name}.{key}")
                    self.counts[slot] = self.counts.get(slot, 0) + value
            return result
        return traced

    def install(self) -> None:
        """Wrap the listed functions and rebind every name imported by name."""
        import consistentwalks
        from consistentwalks import (cli, generation, graphs, localactions, perms,
                                     products, reachability, walks)
        modules = {"perms": perms, "graphs": graphs, "walks": walks,
                   "reachability": reachability, "localactions": localactions,
                   "products": products, "generation": generation, "cli": cli}
        cls = perms.PermutationGroup
        for method, short in PERM_METHODS.items():
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self.wrap(f"perms.{short}", raw.__func__)))
            else:
                setattr(cls, method, self.wrap(f"perms.{short}", raw))
        namespaces = [consistentwalks, *modules.values()]
        for module, names in FUNCTIONS.items():
            for name in names:
                original = getattr(modules[module], name)
                traced = self.wrap(f"{module}.{name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, traced)

    def layer_metrics(self, in_pass: bool) -> dict[str, float]:
        """Calls, self time and counts per layer, for the pass or for set-up."""
        covered: dict = {}
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] = covered.get(parent, 0.0) + end - start
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
        for span_id, name, start, end, _, query in self.spans:
            if (query >= 0) == in_pass:
                metrics[f"{name}.calls"] += 1
                metrics[f"{name}.self_s"] += end - start - covered.get(span_id, 0.0)
        for name in COUNT_NAMES:
            metrics[name] = self.counts.get((in_pass, name), 0)
        returned = self.counts.get((in_pass, "walks.shunts.returned"), 0)
        scanned = metrics["walks.shunts.elements_scanned"]
        metrics["walks.shunts.hit_ratio"] = returned / scanned if scanned else 0.0
        return metrics

    def write_spans(self, path: Path, header: dict) -> None:
        with path.open("w") as out:
            out.write(json.dumps({**header, "fields": ["id", "name", "start", "end",
                                                       "parent", "query"]}) + "\n")
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")
