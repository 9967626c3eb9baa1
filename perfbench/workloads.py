"""The benchmark's workloads: four parts, their seeded inputs and checks.

Each part is a pair ``(setup, run_pass)``.  ``setup(seed, tmp)`` builds the
inputs from the seed alone and returns them as a state dict;
``run_pass(state, checks)`` runs the part once over those inputs through
wallkit's public API and checks every verdict.  A workload (``WORKLOADS``)
runs two parts back to back; the benchmark times that pass only.

Calls go through module attributes (``P.gen_example``, ``D.is_trivial``,
...) so that the traced run, which rebinds those attributes, sees them.

Why these four parts:

- ``pieces``: one relator of up to 3,203 letters puts nearly all the time
  in ``cyclic_word_key`` and ``compute_pieces``, both O(L^2).  It is the
  only workload where the word and piece layers dominate.
- ``word``: few long words plus the exponential normal-form search use
  ``dehn`` differently from ``ball``; a Dehn change that helps one use and
  costs the other shows here.
- ``ball``: about 120k short-word ``dehn_reduce`` calls, interner bucketing
  and ``Word`` construction, then 39,190 mostly single-edge walls.
- ``separation``: the radius-8 CLI run (single-crossing geodesics, many
  pairs, the ``--jobs`` pool) and the theta chain (multi-edge walls, double
  crossings) use ``walls`` and ``separation`` both ways.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

from wallkit import cli
from wallkit import complexes as C
from wallkit import dehn as D
from wallkit import presentation as P
from wallkit import separation as S
from wallkit import walls as W
from wallkit.words import Word

LAMBDA = Fraction(1, 6)
CONSTANT = Fraction(1, 12)  # separation constant at lambda = 1/6

# Input sizes.
RIPS_SCALES = (16, 24, 32)
TV_K = 7
LONG_WORDS_PER_MACHINE = 60
LONG_WORD_LETTERS = (100, 2000)
NF_PAIRS_PER_LENGTH = 4
NF_WORD_LETTERS = (5, 6, 7)
SWEEP_MAX_LEN = 8
BALL_RADIUS = 9
CLI_RADIUS = 8
THETA_NS = tuple(range(1, 13))
THETA_PAIRS = 300
THETA_MAX_PAIRS = 20000
CLI_OUTPUTS = ("report.csv", "summary.json", "complex.txt")

# Invariants every seed must reproduce.  Tests patch single entries to see
# a wrong expectation reported as a failure.
EXPECTED = {
    "rips_max_piece_per_scale": 8,
    "sweep_words": 13121,
    "sweep_trivial": 1,
    "ball_counts": (39299, 39316, 18),  # vertices, edges, cells
    "ball_walls": 39190,
    "cli_pairs": 28680,
    "theta_carrier_walls": 228,
    "theta_wall_distance": 6,
    "theta_probes": 156,
}


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def raised(self, exc: BaseException) -> None:
        """An operation that raised, budget exhaustion included."""
        self.check(False, f"raised {type(exc).__name__}: {exc}")


# -- pieces ---------------------------------------------------------------------


def setup_pieces(seed: int, tmp: Path) -> dict:
    # The presentations are fixed and the seed is unused: their order
    # alone moves the peak memory by a fifth, through heap fragmentation.
    inputs = [("rips", {"j_max": 1, "scale": s}, True) for s in RIPS_SCALES]
    inputs.append(("tv", {"I": {1, 2, 3}, "k": TV_K}, True))
    inputs.append(("pride", {"n_max": 3}, False))
    return {"inputs": inputs}


def run_pieces(state: dict, checks: Checks) -> None:
    for family, params, should_pass in state["inputs"]:
        p = P.gen_example(family, **params)
        rep = P.check_small_cancellation(p, LAMBDA)
        what = f"{family} {params}: passed={rep.passed}"
        if family == "rips":
            max_piece = max(e.max_piece for e in rep.entries)
            want = EXPECTED["rips_max_piece_per_scale"] * params["scale"]
            checks.check(rep.passed and max_piece == want, f"{what}, max piece {max_piece} != {want}")
        else:
            checks.check(rep.passed == should_pass, what)


# -- word -----------------------------------------------------------------------


def _random_reduced(rng: random.Random, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice((1, -1, 2, -2))
        if not out or out[-1] != -x:
            out.append(x)
    return out


# Reverses the shortlex letter order a < a^-1 < b < b^-1 and keeps words
# freely reduced, so a word and its mirror sit at mirrored positions among
# the reduced words of their length.
_MIRROR = {1: -2, -1: 2, 2: -1, -2: 1}


def _relator_product(rng: random.Random, relators, letters: int) -> Word:
    """Product of conjugated, rotated and possibly inverted relators."""
    out: list[int] = []
    while len(out) < letters:
        r = list(rng.choice(relators))
        if rng.random() < 0.5:
            r = [-x for x in reversed(r)]
        k = rng.randrange(len(r))
        conj = _random_reduced(rng, rng.randint(0, 6))
        out += conj + r[k:] + r[:k] + [-x for x in reversed(conj)]
    return Word(out)


def setup_word(seed: int, tmp: Path) -> dict:
    """Seeded words whose total work does not depend on the seed: long
    words have fixed target lengths, and each normal-form word comes with
    its mirror, so the shortlex search scans the same number of candidates
    per pair whatever the seed."""
    rng = random.Random(seed)
    pres = {
        "tv{1,2}": P.gen_example("tv", I={1, 2}, k=TV_K),
        "tv{1,2,3}": P.gen_example("tv", I={1, 2, 3}, k=TV_K),
        "tv{1}": P.gen_example("tv", I={1}, k=TV_K),
    }
    lo, hi = LONG_WORD_LETTERS
    step = (hi - lo) / (LONG_WORDS_PER_MACHINE - 1)
    long_words = {}
    nf_words = {}
    for name in ("tv{1,2}", "tv{1,2,3}"):
        long_words[name] = [
            _relator_product(rng, pres[name].relators, round(lo + i * step))
            for i in range(LONG_WORDS_PER_MACHINE)
        ]
        nf_words[name] = []
        for length in NF_WORD_LETTERS:
            for _ in range(NF_PAIRS_PER_LENGTH):
                w = _random_reduced(rng, length)
                nf_words[name] += [Word(w), Word(_MIRROR[x] for x in w)]
    sweep = list(D.iter_reduced_words(2, SWEEP_MAX_LEN))
    return {"presentations": pres, "long": long_words, "nf": nf_words, "sweep": sweep}


def run_word(state: dict, checks: Checks) -> None:
    machines = {name: D.DehnMachine(p) for name, p in state["presentations"].items()}
    for name, words in state["long"].items():
        m = machines[name]
        for w in words:
            checks.check(D.is_trivial(w, m), f"{name}: relator product of {len(w)} letters is not trivial")
    m1 = machines["tv{1}"]
    trivial = [w for w in state["sweep"] if D.is_trivial(w, m1)]
    checks.check(
        len(state["sweep"]) == EXPECTED["sweep_words"] and len(trivial) == EXPECTED["sweep_trivial"]
        and trivial == [Word()],
        f"tv{{1}}: {len(trivial)} of {len(state['sweep'])} short words trivial",
    )
    for name, words in state["nf"].items():
        m = machines[name]
        for w in words:
            nf = D.shortlex_normal_form(w, m)
            reduced = D.dehn_reduce(w, m)
            checks.check(
                D.is_equal(nf, w, m) and D.shortlex_key(nf) <= D.shortlex_key(reduced),
                f"{name}: normal form {tuple(nf)} of {tuple(w)} is wrong or longer than {tuple(reduced)}",
            )


# -- ball -----------------------------------------------------------------------


def setup_ball(seed: int, tmp: Path) -> dict:
    # The ball itself does not depend on the seed; the seed only drives the
    # random finite quotients that bucket interner candidates.
    return {"presentation": P.gen_example("tv", I={1, 2}, k=TV_K), "seed": seed}


def run_ball(state: dict, checks: Checks) -> None:
    p = state["presentation"]
    m = D.DehnMachine(p)
    c = C.build_cayley_ball(p, m, BALL_RADIUS, seed=state["seed"])
    counts = (c.nv, len(c.edges), len(c.cells))
    checks.check(counts == EXPECTED["ball_counts"], f"ball (vertices, edges, cells) = {counts}")
    ws = W.build_walls(c, settled_policy="all")
    checks.check(len(ws.walls) == EXPECTED["ball_walls"], f"ball has {len(ws.walls)} walls")
    sides = W.two_sidedness_report(ws)
    one_sided = sum(1 for s in sides.values() if not s.two_sided)
    checks.check(len(sides) == len(ws.walls) and one_sided == 0, f"{one_sided} ball walls not two-sided")
    checks.check(C.validity_summary(c, LAMBDA).ok, "ball validity summary not ok")


# -- separation -----------------------------------------------------------------


def setup_separation(seed: int, tmp: Path) -> dict:
    c = C.build_example1(THETA_NS)
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(c.nv), 2)) for _ in range(THETA_PAIRS)]
    return {"seed": seed, "tmp": tmp, "theta": c, "pairs": pairs, "passes": 0, "digests": None}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli_half(state: dict, checks: Checks) -> None:
    """``wallkit separation`` on the radius-8 tv{1,2} ball, in process, with
    the default ``--jobs``."""
    state["passes"] += 1
    out = Path(state["tmp"]) / f"cli-{state['passes']}"
    argv = [
        "separation", "--family", "tv", "--I", "1,2", "--k", str(TV_K), "--radius", str(CLI_RADIUS),
        "--seed", str(state["seed"]), "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if not checks.check(rc == 0, f"wallkit separation exited {rc}"):
        return
    summary = json.loads((out / "summary.json").read_text())
    checks.check(
        summary["passed"] is True and summary["pairs"] == EXPECTED["cli_pairs"],
        f"CLI summary passed={summary['passed']} pairs={summary['pairs']}",
    )
    rows = (out / "report.csv").read_text().splitlines()[1:]
    bad = 0
    for row in rows:
        _, _, d, dw, num, den = (int(x) for x in row.split(",")[:6])
        if dw > d or Fraction(num, den) < CONSTANT:
            bad += 1
    checks.check(
        len(rows) == EXPECTED["cli_pairs"] and bad == 0,
        f"CLI report: {len(rows)} rows, {bad} with dw > d or ratio < 1/12",
    )
    digests = {name: _digest(out / name) for name in CLI_OUTPUTS}
    if state["digests"] is None:
        state["digests"] = digests
    else:
        changed = sorted(n for n in CLI_OUTPUTS if digests[n] != state["digests"][n])
        checks.check(not changed, f"CLI outputs differ from the first pass: {changed}")
    shutil.rmtree(out)


def run_theta_half(state: dict, checks: Checks) -> None:
    """Walls, wall distance and neighborhood probes on the theta chain."""
    c = state["theta"]
    ws = W.build_walls(c)
    sides = W.two_sidedness_report(ws)
    checks.check(all(s.two_sided for s in sides.values()), "theta chain has a wall that is not two-sided")
    carrier = [wid for wid in ws.wall_ids() if ws.hyperedges[wid]]
    checks.check(
        len(carrier) == EXPECTED["theta_carrier_walls"], f"theta chain has {len(carrier)} carrier walls"
    )
    for wid in carrier:
        rep = W.hypercarrier_check(ws, wid, strict=True)
        checks.check(rep.passed, f"theta wall {wid} carrier not convex: {rep.witness}")

    ends = [(n, c.labeled(f"a{n}"), c.labeled(f"e{n}")) for n in THETA_NS]
    for n, a, e in ends:
        d = c.bfs_distances(a)[e]
        parity = W.wall_distance(ws, a, e, via="parity")
        comps = W.wall_distance(ws, a, e, via="components")
        want = EXPECTED["theta_wall_distance"]
        checks.check(
            d == 2 * n + 6 and parity.total == want and parity == comps,
            f"theta n={n}: d={d}, dw parity={parity}, components={comps}",
        )
    for p, q in state["pairs"]:
        parity = W.wall_distance(ws, p, q, via="parity")
        comps = W.wall_distance(ws, p, q, via="components")
        checks.check(parity == comps, f"theta pair {p},{q}: parity {parity} != components {comps}")

    rep = S.verify_linear_separation(
        c, ws, LAMBDA, observe=True, max_pairs=THETA_MAX_PAIRS, seed=state["seed"]
    )
    over = sum(1 for r in rep.rows if r.dw > r.d)
    checks.check(
        rep.pair_count == THETA_MAX_PAIRS and over == 0,
        f"theta sweep: {rep.pair_count} pairs, {over} with dw > d",
    )

    probes = 0
    for _, a, e in ends:
        ctx = S.geodesic_context(c, ws, a, e)
        for eid in ctx.edge_seq:
            if eid in ctx.single_crossing:
                continue
            ne = S.relator_neighborhood(eid, ctx)
            S.neighborhood_probe(ne, ctx, LAMBDA)
            S.local_density_check(ne, ctx, LAMBDA)
            probes += 1
    checks.check(probes == EXPECTED["theta_probes"], f"theta chain: {probes} neighborhood probes")


def run_separation(state: dict, checks: Checks) -> None:
    run_cli_half(state, checks)
    run_theta_half(state, checks)


PARTS = {
    "pieces": (setup_pieces, run_pieces),
    "word": (setup_word, run_word),
    "ball": (setup_ball, run_ball),
    "separation": (setup_separation, run_separation),
}

# The benchmark's workloads run two parts back to back.  On a shared host
# whose speed drifts by a fifth over 10-30 s, only runs of about a minute
# average the drift out, and the benchmark's time allows about a minute per
# run for two workloads, not for four.  Each pair keeps one optimisation's
# mechanism on one side: words, pieces, long-word Dehn and the normal-form
# search in ``check-word``; short-word Dehn, the complex builder, walls,
# separation and the CLI pool in ``ball-separation``.
WORKLOADS = {
    "check-word": ("pieces", "word"),
    "ball-separation": ("ball", "separation"),
}
