"""Spans around the library's layer boundaries, recorded from outside.

The tracer replaces module-level attributes (functions, `lru_cache`
wrappers, methods of `LinearCombination`) with wrappers that call the
original, so cache behaviour is unchanged.  Each call records one span:
name, parent, start and end.  Spans stay in memory in flat arrays and are
reduced when the rep ends, into per-name self times and a collapsed call
tree ("a;b;c" -> calls, total, self).
"""

from __future__ import annotations

import time
from array import array

# (span name, module, dotted attribute, what to count from the result)
# "nonzero": calls whose result is a nonzero combination;
# "size": total len() of the results.
TARGETS = [
    ("linear.map_basis", "linear", "LinearCombination.map_basis", "size"),
    ("linear.add", "linear", "LinearCombination.__add__", None),
    ("linear.sub", "linear", "LinearCombination.__sub__", None),
    ("linear.neg", "linear", "LinearCombination.__neg__", None),
    ("linear.scale", "linear", "LinearCombination.scale", None),
    ("fock.e_coeff_monomial", "fock", "_e_coeff_monomial", None),
    ("fock.h_act", "fock", "h_act", None),
    ("wedge.a_act", "wedge", "a_act", "nonzero"),
    ("wedge.astar_act", "wedge", "astar_act", "nonzero"),
    ("rep.x_act", "rep", "x_act", None),
    ("rep.y_act", "rep", "y_act", None),
    ("rep.h_act_full", "rep", "h_act_full", None),
    ("rep.x_basis", "rep", "_x_basis", None),
    ("rep.y_basis", "rep", "_y_basis", None),
    ("rep.h_basis", "rep", "_h_basis", None),
    ("zalg.gen_commutator", "zalg", "gen_commutator", None),
    ("zalg.pair_term", "zalg", "_pair_term", "nonzero"),
    ("zalg.zop_via_definition", "zalg", "zop_via_definition", None),
    ("harness.verify_current_relations", "harness",
     "verify_current_relations", None),
    ("harness.verify_z_suite", "harness", "verify_z_suite", None),
    ("harness.state_basis", "harness", "state_basis", "size"),
    ("harness.wedge_bases_up_to", "harness", "wedge_bases_up_to", "size"),
    ("cli.main", "cli", "main", None),
]


def _owner_and_attr(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and reduces the spans afterwards."""

    def __init__(self, modules):
        self.modules = modules
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counted = [0] * len(TARGETS)
        self.missing = []
        self._patched = []

    def install(self):
        for nid, (name, modname, dotted, count) in enumerate(TARGETS):
            owner, attr = _owner_and_attr(self.modules[modname], dotted)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, nid, count))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrapper(self, fn, nid, count):
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counted = self.counted
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count == "nonzero":
                if result:
                    counted[nid] += 1
            elif count == "size":
                counted[nid] += len(result)
            return result

        return traced

    def reduce(self):
        """Per-name calls/total/self/counted, and the collapsed call tree."""
        n = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        path_of = [0] * n
        paths = {}
        tree = []
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            own = dur - child[i]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += own
            p = parents[i]
            key = (path_of[p] if p >= 0 else -1, nid)
            pid = paths.get(key)
            if pid is None:
                pid = paths[key] = len(tree)
                prefix = tree[key[0]][0] + ";" if key[0] >= 0 else ""
                tree.append([prefix + self.names[nid], 0, 0.0, 0.0])
            path_of[i] = pid
            row = tree[pid]
            row[1] += 1
            row[2] += dur
            row[3] += own
        per_name = {
            name: {"calls": calls[i], "total_s": total[i],
                   "self_s": self_s[i], "counted": self.counted[i]}
            for i, name in enumerate(self.names)}
        collapsed = {path: {"calls": c, "total_s": t, "self_s": s}
                     for path, c, t, s in tree}
        return per_name, collapsed, n
