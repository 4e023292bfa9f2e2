"""Span tracing of the driftel layers, from outside the program.

``Tracer.install`` replaces each traced function at every driftel module
attribute bound to it, which is where its callers look it up, with a wrapper
that records a span: name, step, phase, start, end and parent. Spans are kept
in memory and written out by ``write``. A wrapper records only while a phase
is set, so the benchmark's own checks, which run between phases, leave no
spans. A traced function that no longer exists is reported as absent.
"""

from __future__ import annotations

import csv
import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter_ns

# Span name -> the functions it times, as (module under driftel, name).
SPANS = {
    "streams.generate": [("streams", "make_stream")],
    "cart.train": [("cart", "train_cart")],
    "cart.split_search": [("cart", "best_split_indices")],
    "cart.route": [("cart", "predict_chunk"), ("cart", "posterior_chunk")],
    "transfer.adapt": [("transfer", "transfer_tree")],
    "dtel.weighting": [("dtel", "mse_model")],
    "dtel.vote": [("dtel", "predict_ensemble_chunk")],
    "diversity.correctness": [("diversity", "correctness")],
    "diversity.select_removal": [("diversity", "select_removal")],
    "baselines.vote": [("baselines", "majority_vote")],
}

# Per-layer metric -> (unit, spans it needs). Timing metrics first; the
# others are counts and ratios that repeat exactly between runs.
TIMING = {
    "streams.generate_s": ("s", ["streams.generate"]),
    "cart.train_s": ("s", ["cart.train"]),
    "cart.split_search_s": ("s", ["cart.split_search"]),
    "cart.route_s": ("s", ["cart.route"]),
    "transfer.adapt_self_s": ("s", ["transfer.adapt"]),
    "dtel.weighting_s": ("s", ["dtel.weighting"]),
    "dtel.vote_self_s": ("s", ["dtel.vote"]),
    "diversity.correctness_s": ("s", ["diversity.correctness"]),
    "diversity.select_removal_s": ("s", ["diversity.select_removal"]),
    "baselines.vote_s": ("s", ["baselines.vote"]),
    "trace.coverage": ("ratio", []),
    "trace.overhead_s": ("s", []),
}
COUNTS = {
    "cart.train_calls": ("count", ["cart.train"]),
    "cart.split_search_calls": ("count", ["cart.split_search"]),
    "cart.split_yield": ("ratio", ["cart.split_search", "cart.train", "transfer.adapt"]),
    "cart.route_calls": ("count", ["cart.route"]),
    "cart.new_tree_nodes": ("count", ["cart.train"]),
    "transfer.adapt_calls": ("count", ["transfer.adapt"]),
    "transfer.adapted_nodes": ("count", ["transfer.adapt"]),
    "dtel.weight_min_max_ratio_p50": ("ratio", []),
    "dtel.archive_nodes": ("count", []),
    "diversity.evictions": ("count", ["diversity.select_removal"]),
    "baselines.vote_calls": ("count", ["baselines.vote"]),
}
PHASES = ("setup", "update", "predict")
NAMES = tuple(SPANS)
FIELDS = 6  # name, step, phase, start_ns, end_ns, parent index per span


class Tracer:
    def __init__(self):
        # Spans as flat integers (see FIELDS): no per-span objects for the
        # garbage collector to walk while the traced round runs.
        self.spans = array("q")
        self.stack: list[int] = []
        self.step = -1
        self.phase = None  # a PHASES entry; recording only while set
        self.absent: set[str] = set()
        self.restore: list = []
        self.new_trees: list = []
        self.adaptations: list = []
        self.evictions = 0
        self.new_model_id = "new"
        # Deterministic per-step facts, gathered between steps.
        self.new_sizes: list[tuple[int, int]] = []
        self.adapted_sizes: list[tuple[int, int]] = []
        self.weight_ratios: list[float] = []
        self.archive_nodes = None
        self.size_cache: dict = {}

    def install(self):
        self.new_model_id = getattr(sys.modules.get("driftel.diversity"), "NEW_MODEL", "new")
        self.tree_to_text = getattr(sys.modules.get("driftel.cart"), "tree_to_text", None)
        for span, funcs in SPANS.items():
            found = False
            for mod_name, attr in funcs:
                try:
                    mod = importlib.import_module(f"driftel.{mod_name}")
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if callable(fn):
                    self._wrap_everywhere(fn, self._wrapper(span, fn))
                    found = True
            if not found:
                self.absent.add(span)

    def uninstall(self):
        for mod, attr, fn in reversed(self.restore):
            setattr(mod, attr, fn)
        self.restore.clear()

    def _wrap_everywhere(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "driftel" or name.startswith("driftel."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self.restore.append((mod, attr, fn))

    def _wrapper(self, span, fn):
        spans, stack = self.spans, self.stack
        name_id = NAMES.index(span)
        keep = {"cart.train": self._keep_new, "transfer.adapt": self._keep_adapted,
                "diversity.select_removal": self._keep_removal}.get(span)

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.extend((name_id, self.step, PHASES.index(self.phase), 0, 0,
                          stack[-1] if stack else -1))
            stack.append(i)
            spans[i + 3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i + 4] = perf_counter_ns()
                stack.pop()
            if keep is not None:
                keep(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _keep_new(self, args, tree):
        self.new_trees.append(tree)

    def _keep_adapted(self, args, adapted):
        self.adaptations.append((args[0], getattr(adapted, "tree", adapted)))

    def _keep_removal(self, args, removed):
        self.evictions += removed != self.new_model_id

    # -- deterministic facts, gathered between steps (outside timed calls) --

    def _size(self, tree, cache=True):
        """(nodes, internal nodes) of a tree, from its text serialization.
        New trees are cached: they are transferred again at later steps."""
        hit = self.size_cache.get(id(tree))
        if hit is None or hit[0] is not tree:
            lines = self.tree_to_text(tree).splitlines()
            hit = (tree, len(lines), sum(1 for ln in lines if ln.startswith("node")))
            if cache:
                self.size_cache[id(tree)] = hit
        return hit[1], hit[2]

    def after_step(self, learner):
        if self.tree_to_text is not None:
            self.new_sizes += [self._size(t) for t in self.new_trees]
            for source, adapted in self.adaptations:
                nodes, internal = self._size(adapted, cache=False)
                self.adapted_sizes.append((nodes, internal - self._size(source)[1]))
        self.new_trees.clear()
        self.adaptations.clear()
        ensemble = getattr(learner, "ensemble", None)
        if ensemble is not None:
            weights = [m.weight for m in ensemble.members]
            self.weight_ratios.append(min(weights) / max(weights))

    def finish(self, learner):
        archive = getattr(learner, "archive", None)
        if archive is not None and self.tree_to_text is not None:
            self.archive_nodes = sum(self._size(t)[0] for t in archive.models)

    # -- summaries --

    def rows(self):
        """Spans as (name, step, phase, start_ns, end_ns, parent) tuples; the
        parent is the parent's offset in ``spans``, or -1."""
        s = self.spans
        return [(NAMES[s[i]], s[i + 1], PHASES[s[i + 2]], s[i + 3], s[i + 4], s[i + 5])
                for i in range(0, len(s), FIELDS)]

    def summary(self, traced_cell_s: float, untraced_cell_s: float):
        """(timing metrics, count metrics, absent metrics)."""
        total = dict.fromkeys(SPANS, 0)
        self_ns = dict.fromkeys(SPANS, 0)
        calls = dict.fromkeys(SPANS, 0)
        rows = self.rows()
        child_ns = {}
        top_ns = 0
        for _name, _step, phase, start, end, parent in rows:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
            elif phase != "setup":
                top_ns += end - start
        for i, (name, _step, _phase, start, end, _parent) in enumerate(rows):
            total[name] += end - start
            self_ns[name] += end - start - child_ns.get(i * FIELDS, 0)
            calls[name] += 1
        timing = {
            "streams.generate_s": total["streams.generate"] / 1e9,
            "cart.train_s": total["cart.train"] / 1e9,
            "cart.split_search_s": total["cart.split_search"] / 1e9,
            "cart.route_s": total["cart.route"] / 1e9,
            "transfer.adapt_self_s": self_ns["transfer.adapt"] / 1e9,
            "dtel.weighting_s": total["dtel.weighting"] / 1e9,
            "dtel.vote_self_s": self_ns["dtel.vote"] / 1e9,
            "diversity.correctness_s": total["diversity.correctness"] / 1e9,
            "diversity.select_removal_s": total["diversity.select_removal"] / 1e9,
            "baselines.vote_s": total["baselines.vote"] / 1e9,
            "trace.coverage": top_ns / 1e9 / traced_cell_s,
            "trace.overhead_s": traced_cell_s - untraced_cell_s,
        }
        created = sum(i for _n, i in self.new_sizes) + sum(i for _n, i in self.adapted_sizes)
        counts = {
            "cart.train_calls": calls["cart.train"],
            "cart.split_search_calls": calls["cart.split_search"],
            "cart.split_yield": created / calls["cart.split_search"] if calls["cart.split_search"] else 0.0,
            "cart.route_calls": calls["cart.route"],
            "cart.new_tree_nodes": _mean([n for n, _i in self.new_sizes]),
            "transfer.adapt_calls": calls["transfer.adapt"],
            "transfer.adapted_nodes": _mean([n for n, _i in self.adapted_sizes]),
            "dtel.weight_min_max_ratio_p50": (statistics.median(self.weight_ratios)
                                              if self.weight_ratios else 0.0),
            "dtel.archive_nodes": self.archive_nodes or 0,
            "diversity.evictions": self.evictions,
            "baselines.vote_calls": calls["baselines.vote"],
        }
        absent = sorted(
            metric for metric, (_unit, needs) in {**TIMING, **COUNTS}.items()
            if any(span in self.absent for span in needs)
            or (metric.endswith("_nodes") or metric == "cart.split_yield") and self.tree_to_text is None
        )
        for metric in absent:
            (timing if metric in timing else counts)[metric] = 0
        return timing, counts, absent

    def write(self, stem, timing, counts, absent):
        """Spans as CSV; count metrics and timing metrics as separate JSON
        files, so that two runs' count files diff clean."""
        with open(f"{stem}.spans.csv", "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "step", "phase", "start_ns", "end_ns", "parent"))
            out.writerows((*row[:5], row[5] // FIELDS if row[5] >= 0 else -1)
                          for row in self.rows())
        with open(f"{stem}.counts.json", "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, "absent": absent}, fh, indent=1, sort_keys=True)
        with open(f"{stem}.timing.json", "w", encoding="utf-8") as fh:
            json.dump(timing, fh, indent=1, sort_keys=True)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
