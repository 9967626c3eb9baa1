"""In-memory span recorder for the traced benchmark run.

Tracing wraps each layer's public functions in place, under every name a
wallkit module binds them to (``complexes.dehn_reduce``,
``cli.build_cayley_ball``, ``presentation.cyclic_word_key``, ...), so a
call is charged to the layer that owns the function whichever module makes
it.  Nothing inside ``src/wallkit`` changes.

Spans are kept in flat arrays during a pass and aggregated once the pass
has ended.  A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

MODULES = ("words", "presentation", "dehn", "complexes", "walls", "separation", "cli")


def _count_letters(arg_index: int, counter: str):
    def hook(counts: Counter, args: tuple, _result) -> None:
        counts[counter] += len(args[arg_index])

    return hook


def _count_pieces(counts: Counter, args: tuple, result) -> None:
    counts["presentation.compute_pieces.letters"] += sum(len(r) for r in args[0].relators)
    counts["presentation.pieces"] += len(result.pieces)


def _count_cayley_ball(counts: Counter, _args: tuple, result) -> None:
    counts["complexes.vertices"] += result.nv


def _count_cell_pieces(counts: Counter, _args: tuple, result) -> None:
    counts["complexes.cell_pieces"] += len(result.pieces)


def _count_interner(counts: Counter, _args: tuple, result) -> None:
    counts["complexes.interner.probes"] += 1
    counts["complexes.interner.hits"] += bool(result)


def _count_walls(counts: Counter, _args: tuple, result) -> None:
    counts["walls.count"] += len(result.walls)
    counts["walls.multi_edge"] += sum(1 for edge_ids in result.walls.values() if len(edge_ids) > 1)


def _count_pairs(counts: Counter, _args: tuple, result) -> None:
    counts["separation.pairs"] += result.pair_count


def _count_probe(counts: Counter, _args: tuple, _result) -> None:
    counts["separation.probes"] += 1


# (defining module, function, span name, result hook).  The span name is
# the layer metric prefix; several functions may share one span name.
TARGETS = (
    ("words", "free_reduce", "words.free_reduce", None),
    ("words", "cyclic_word_key", "words.cyclic_word_key", _count_letters(0, "words.cyclic_word_key.letters")),
    ("presentation", "gen_example", "presentation.gen_example", None),
    ("presentation", "compute_pieces", "presentation.compute_pieces", _count_pieces),
    ("dehn", "dehn_reduce", "dehn.dehn_reduce", _count_letters(0, "dehn.dehn_reduce.letters")),
    ("dehn", "is_trivial", "dehn.is_trivial", None),
    ("dehn", "shortlex_normal_form", "dehn.shortlex_normal_form", None),
    ("complexes", "build_cayley_ball", "complexes.build_cayley_ball", _count_cayley_ball),
    ("complexes", "check_B6", "complexes.check_B6", _count_cell_pieces),
    ("complexes", "validity_summary", "complexes.validity_summary", None),
    ("walls", "build_walls", "walls.build_walls", _count_walls),
    ("walls", "two_sidedness_report", "walls.two_sidedness_report", None),
    ("walls", "hypercarrier_check", "walls.hypercarrier_check", None),
    ("walls", "wall_distance", "walls.wall_distance", None),
    ("separation", "verify_linear_separation", "separation.verify_linear_separation", _count_pairs),
    ("separation", "relator_neighborhood", "separation.neighborhood", None),
    ("separation", "neighborhood_probe", "separation.neighborhood", _count_probe),
    ("separation", "local_density_check", "separation.neighborhood", None),
    ("cli", "main", "cli.main", None),
)

# Hooks that depend on which module makes the call, not on the function.
BINDING_HOOKS = {
    # is_trivial as looked up by build_cayley_ball: one interner probe each,
    # a hit when the candidate merged with an existing vertex.
    ("complexes", "is_trivial"): _count_interner,
}


class Tracer:
    """Records nested spans of wrapped wallkit functions during one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self.stack[1:]
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in every wallkit module."""
        self.missing = []
        mods = {m: importlib.import_module(f"wallkit.{m}") for m in MODULES}
        mods["wallkit"] = importlib.import_module("wallkit")
        for home, attr, span, hook in TARGETS:
            orig = getattr(mods[home], attr, None)
            if orig is None:
                self.missing.append(f"{home}.{attr}")
                continue
            for mod_name, mod in mods.items():
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, self.wrap(orig, span, BINDING_HOOKS.get((mod_name, attr), hook)))
        # DehnMachine is a class: wrap its constructor once for all callers.
        dm = getattr(mods["dehn"], "DehnMachine", None)
        if dm is None:
            self.missing.append("dehn.DehnMachine")
        else:
            self._patch(dm, "__init__", self.wrap(dm.__init__, "dehn.DehnMachine"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            # a name nested in itself would count twice in total_s; no
            # wrapped function calls itself, so inclusive sums are exact
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out


# rate metric -> (count metric, span whose inclusive time divides it)
RATES = {
    "dehn.dehn_reduce.letters_per_s": ("dehn.dehn_reduce.letters", "dehn.dehn_reduce"),
    "complexes.vertices_per_s": ("complexes.vertices", "complexes.build_cayley_ball"),
    "separation.pairs_per_s": ("separation.pairs", "separation.verify_linear_separation"),
}


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """The value of each metric in ``names`` (the per-layer names of
    BENCHMARK.json) for the pass the tracer just recorded.

    A name ending in ``.self_s`` or ``.calls`` reads that field of the span
    of the same prefix; a rate divides a count by the inclusive time of a
    span (RATES); any other name is a count kept by a result hook.
    """
    agg = tracer.aggregate()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        if name in RATES:
            count, span = RATES[name]
            total = agg.get(span, {}).get("total_s", 0.0)
            out[name] = counts[count] / total if total else 0.0
        elif name == "complexes.interner.hit_ratio":
            probes = counts["complexes.interner.probes"]
            out[name] = counts["complexes.interner.hits"] / probes if probes else 0.0
        elif field in ("self_s", "calls"):
            out[name] = agg.get(prefix, {}).get(field, 0)
        else:
            out[name] = counts[name]
    return out
