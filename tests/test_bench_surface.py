"""The benchmark's hold on the public API.

``perfbench/workloads.py`` and ``perfbench/spans.py`` call wallkit by
attribute and by keyword.  These tests read both files without importing
them and check that every name they use still exists and that every
keyword they pass still binds, so that a change which removes or renames
one fails here in seconds rather than in the benchmark run.
"""

import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from wallkit import complexes as C
from wallkit import dehn as D
from wallkit import presentation as P
from wallkit import separation as S
from wallkit import walls as W

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _aliases(tree: ast.Module) -> dict[str, object]:
    """The wallkit modules the file imports, by the name it binds them to."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "wallkit":
            for a in node.names:
                out[a.asname or a.name] = importlib.import_module(f"wallkit.{a.name}")
    return out


WORKLOADS = _tree("workloads.py")
ALIASES = _aliases(WORKLOADS)


def _module_attrs():
    for node in ast.walk(WORKLOADS):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ALIASES:
            yield node


def test_workloads_import_the_modules_they_call():
    assert set(ALIASES) == {"cli", "C", "D", "P", "S", "W"}


def test_every_attribute_the_workloads_read_exists():
    missing = sorted(
        {f"{a.value.id}.{a.attr}" for a in _module_attrs() if not hasattr(ALIASES[a.value.id], a.attr)}
    )
    assert not missing


def test_every_keyword_the_workloads_pass_binds():
    attrs = set(_module_attrs())
    bound = set()
    for node in ast.walk(WORKLOADS):
        if not (isinstance(node, ast.Call) and node.func in attrs):
            continue
        fn = getattr(ALIASES[node.func.value.id], node.func.attr)
        # **params spreads the benchmark's own dicts; their keys are checked
        # where the presentation families read them
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        args = [None] * sum(not isinstance(a, ast.Starred) for a in node.args)
        try:
            inspect.signature(fn).bind(*args, **dict.fromkeys(keywords))
        except TypeError as e:
            pytest.fail(f"line {node.lineno}: {node.func.value.id}.{node.func.attr}: {e}")
        bound.update(keywords)
    assert {"settled_policy", "via", "strict", "observe", "max_pairs"} <= bound


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value the module-level statement ``name = ...`` assigns."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return node.value
    raise AssertionError(f"spans.py assigns no {name}")


SPANS = _tree("spans.py")
TRACED = [(e.elts[0].value, e.elts[1].value) for e in _assigned(SPANS, "TARGETS").elts]


def test_every_traced_function_exists():
    assert len(TRACED) >= 10
    missing = [f"{m}.{f}" for m, f in TRACED if not hasattr(importlib.import_module(f"wallkit.{m}"), f)]
    assert not missing


def test_every_binding_hook_names_a_traced_binding():
    # A hook keyed by a name its module does not bind to the traced target
    # is never installed, and its counters (the interner probes) read 0.
    home = {f: m for m, f in TRACED}
    keys = [(k.elts[0].value, k.elts[1].value) for k in _assigned(SPANS, "BINDING_HOOKS").keys]
    assert keys
    for mod, name in keys:
        assert name in home, name
        target = getattr(importlib.import_module(f"wallkit.{home[name]}"), name)
        assert getattr(importlib.import_module(f"wallkit.{mod}"), name, None) is target, f"{mod}.{name}"


def test_result_attributes_the_workloads_read_exist():
    # The attribute reads on results (not on modules) that the workloads
    # make, on a radius-4 ball: a renamed field would only fail in the
    # benchmark run.
    p = P.gen_example("tv", I={1, 2}, k=7)
    c = C.build_cayley_ball(p, D.DehnMachine(p), 4)
    assert (c.nv, len(c.edges), len(c.cells)) == (161, 160, 0)
    assert c.labeled(c.vertex_labels[7]) == 7
    assert c.bfs_distances(0) == c.dist
    ws = W.build_walls(c, settled_policy="all")
    assert len(ws.walls) == len(c.edges)
    assert all(ws.hyperedges[wid] == () for wid in ws.wall_ids())
    assert all(s.two_sided for s in W.two_sidedness_report(ws).values())
    parity, comps = (W.wall_distance(ws, 0, 7, via=via) for via in ("parity", "components"))
    assert parity.total == comps.total == c.dist[7]
    assert C.validity_summary(c, Fraction(1, 6)).ok
    rep = S.verify_linear_separation(c, ws, Fraction(1, 6), observe=True, max_pairs=50, seed=3)
    assert rep.pair_count == len(rep.rows) == 50
    assert all(r.dw <= r.d for r in rep.rows)


def test_result_fields_the_span_hooks_read():
    # The reads that the result hooks of spans.py make, on real results for
    # the radius-4 ball: a field that moves or changes type there only
    # miscounts a traced metric, with no failure anywhere.
    p = P.gen_example("tv", I={1, 2}, k=7)
    ball = C.build_cayley_ball(p, D.DehnMachine(p), 4)
    assert ball.nv == 161
    assert (sum(len(r) for r in p.relators), len(P.compute_pieces(p).pieces)) == (42, 4)
    assert len(C.check_B6(ball).pieces) == 0  # the ball has no cells
    ws = W.build_walls(ball, settled_policy="all")
    assert len(ws.walls) == 160
    sizes = [len(edge_ids) for edge_ids in ws.walls.values()]
    assert sizes == [ws.walls.size(wid) for wid in ws.walls] and sum(sizes) == len(ball.edges)
    assert sum(1 for n in sizes if n > 1) == 0
    rep = S.verify_linear_separation(ball, ws, Fraction(1, 6), observe=True, max_pairs=50, seed=3)
    assert rep.pair_count == 50
