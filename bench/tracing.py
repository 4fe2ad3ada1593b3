"""Spans around the calls into each layer, for the traced run only.

The tracer replaces, for the life of one worker process, the functions the
harness (and the benchmark itself) calls through with wrappers that record
a span: name, start, end, parent span and request id.  Spans are kept in
flat arrays in memory and written out when the workload ends.  Nothing in
the library is changed on disk and nothing is wrapped in untraced runs.

A layer's self time is the time inside its spans minus the time covered by
their direct child spans; the harness layer is the rest of the workload's
wall time (the generation loop, the level cache, reports and the request
code itself).
"""

from __future__ import annotations

import gzip
import time
from array import array

from forbpairs import harness, induced, pairs

PLAIN, BOOL, GEN, CANON = range(4)

LAYERS = (
    "canon", "induced", "perfection", "graphs.chi", "graphs.omega",
    "graphs.relabel", "pairs.class", "pairs.classify", "graph6", "harness",
)


def boundaries(oracles):
    """(owner, attribute, span name, layer, mode, counted) for each wrapper.

    `counted` spans make up `<layer>.calls`: for `induced` that is the
    matcher, `contains_induced`, not the `is_free` loop around it.  The
    `census` span only marks its children: the graph6 layer is the
    encoding of counterexamples, so encoding a census member is report
    building and counts as harness time.
    """
    return (
        (harness, "generate_graphs", "harness.generate_graphs", "harness", GEN, True),
        (harness, "census", "harness.census", "harness", PLAIN, False),
        (harness, "canonical_form", "harness.canonical_form", "canon", CANON, True),
        (harness, "is_free", "harness.is_free", "induced", BOOL, False),
        (induced, "contains_induced", "induced.contains_induced", "induced", PLAIN, True),
        (harness, "is_perfect_spgt", "harness.is_perfect_spgt", "perfection", PLAIN, True),
        (oracles, "perfect", "bench.is_perfect_spgt", "perfection", PLAIN, True),
        (harness, "chromatic_number", "harness.chromatic_number", "graphs.chi", PLAIN, True),
        (oracles, "chi", "bench.chromatic_number", "graphs.chi", PLAIN, True),
        (harness, "max_clique", "harness.max_clique", "graphs.omega", PLAIN, True),
        (oracles, "omega", "bench.max_clique", "graphs.omega", PLAIN, True),
        (harness, "relabel", "harness.relabel", "graphs.relabel", PLAIN, True),
        (harness, "encode_graph6", "harness.encode_graph6", "graph6", PLAIN, True),
        (pairs.ClassSpec, "contains", "pairs.ClassSpec.contains", "pairs.class", BOOL, True),
        (pairs, "classify_pair", "pairs.classify_pair", "pairs.classify", PLAIN, True),
    )


class Tracer:
    def __init__(self, oracles):
        self.table = boundaries(oracles)
        self.kind = array("b")
        self.parent = array("l")
        self.request_of = array("l")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request = -1
        # generate_graphs span -> (order, ids of its pattern graphs, result size)
        self.gen: dict[int, list] = {}
        self._saved: list[tuple] = []

    def install(self) -> None:
        for kind, (owner, attr, _, _, mode, _) in enumerate(self.table):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(kind, mode, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, kind: int, mode: int, fn):
        kinds, parents, requests = self.kind, self.parent, self.request_of
        flags, starts, ends = self.flag, self.start, self.end
        stack, gen, clock, tracer = self.stack, self.gen, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(kinds)
            parent = stack[-1]
            kinds.append(kind)
            parents.append(parent)
            requests.append(tracer.request)
            flags.append(0)
            ends.append(0.0)
            if mode == GEN:
                patterns = args[1] if len(args) > 1 else kwargs.get("patterns")
                gen[idx] = [args[0], {id(p) for p in patterns or ()}, 0]
            elif mode == CANON and parent in gen and id(args[0]) in gen[parent][1]:
                flags[idx] = 1  # the pattern-set cache key, not generation work
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if mode == BOOL:
                flags[idx] = 1 if result else 0
            elif mode == GEN:
                gen[idx][2] = len(result)
            return result

        return traced

    # -----------------------------------------------------------------------

    def summary(self, wall_s: float) -> tuple[dict[str, float], dict[str, int]]:
        """(per-layer metrics, exact counts) for a workload of wall_s seconds."""
        names = [row[2] for row in self.table]
        layer_of = [row[3] for row in self.table]
        counted = [row[5] for row in self.table]
        by_name = {name: k for k, name in enumerate(names)}
        k_gen, k_canon = by_name["harness.generate_graphs"], by_name["harness.canonical_form"]
        k_free = by_name["harness.is_free"]
        k_class = by_name["pairs.ClassSpec.contains"]
        k_census, k_g6 = by_name["harness.census"], by_name["harness.encode_graph6"]

        kinds, parents, flags = self.kind, self.parent, self.flag
        starts, ends = self.start, self.end
        covered = [0.0] * len(kinds)
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        class_pass = 0
        worked: set[int] = set()
        parents_level: dict[int, int] = {}
        rejected: dict[int, int] = {}
        span_layer = [""] * len(kinds)
        for i in range(len(kinds)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
            k = kinds[i]
            if k == k_g6 and p >= 0 and kinds[p] == k_census:
                span_layer[i] = "harness"  # a census member, not a counterexample
                continue
            span_layer[i] = layer_of[k]
            calls[layer_of[k]] += counted[k]
            if k == k_class:
                class_pass += flags[i]
            if p in self.gen:
                if k == k_gen:
                    worked.add(p)
                    parents_level[p] = self.gen[i][2]
                elif k == k_free:
                    worked.add(p)
                    rejected[p] = rejected.get(p, 0) + (1 - flags[i])
                elif k == k_canon and not flags[i]:
                    worked.add(p)
        for i, layer in enumerate(span_layer):
            self_s[layer] += ends[i] - starts[i] - covered[i]
        self_s["harness"] = wall_s - sum(v for k, v in self_s.items() if k != "harness")

        # orders 0 and 1 need no canonical form whether cached or not
        levels = hits = kept = tried = dropped = 0
        for idx, (n, _, size) in self.gen.items():
            if n < 2:
                continue
            levels += 1
            if idx not in worked:
                hits += 1
                continue
            kept += size
            tried += parents_level.get(idx, 0) << (n - 1)
            dropped += rejected.get(idx, 0)

        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.us_per_call"] = (
                self_s[layer] / calls[layer] * 1e6 if calls[layer] else 0.0
            )
        metrics["induced.free_ratio"] = (tried - dropped) / tried if tried else 0.0
        metrics["canon.new_ratio"] = kept / calls["canon"] if calls["canon"] else 0.0
        metrics["harness.cache_hit_ratio"] = hits / levels if levels else 0.0
        metrics["pairs.class_pass_ratio"] = (
            class_pass / calls["pairs.class"] if calls["pairs.class"] else 0.0
        )
        counts = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        counts.update(
            spans=len(kinds), levels=levels, cache_hits=hits, classes_kept=kept,
            children_tried=tried, children_dropped=dropped, class_passed=class_pass,
        )
        return metrics, counts

    def write(self, path, t0: float) -> None:
        """The spans as gzipped CSV, times in seconds from t0."""
        names = [row[2] for row in self.table]
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            for i in range(len(self.kind)):
                fh.write(
                    f"{i},{names[self.kind[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.request_of[i]}\n"
                )
