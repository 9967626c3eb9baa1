"""Small cancellation toolkit.

Core objects: words over signed generators, presentations with piece
analysis, a Dehn rewrite engine, combinatorial 2-complexes (Cayley balls and
hand-built counterexample complexes), wall systems, and the wall/path metric
comparison harness.
"""

from .errors import (
    BadParams,
    BudgetExceeded,
    EmptyRelator,
    HypothesisViolated,
    NotSmallCancellation,
    OddCell,
    ParseError,
    UnknownGenerator,
    WallkitError,
)
from .words import Word, concat, cyclic_reduce, free_reduce, render, symmetrize
from .presentation import (
    MetricReport,
    Piece,
    PieceIndex,
    Presentation,
    check_small_cancellation,
    compute_pieces,
    gen_example,
    parse_presentation,
    parse_word,
    render_presentation,
)
from .dehn import (
    DehnMachine,
    dehn_reduce,
    is_equal,
    is_trivial,
    shortlex_normal_form,
)
from .complexes import (
    B6Report,
    CellPiece,
    Complex,
    build_cayley_ball,
    build_example1,
    build_example2,
    boundary_word,
    check_B6,
    compute_cell_pieces,
    geodesic,
    load_complex,
    save_complex,
    subdivide,
    validity_summary,
)
from .walls import (
    WallSystem,
    build_walls,
    dump_walls,
    hypercarrier,
    hypercarrier_check,
    hypergraph_of,
    separates,
    two_sidedness_report,
    wall_distance,
    wall_sides,
    walls_to_dot,
)
from .separation import (
    GeodesicContext,
    RelatorNeighborhood,
    SeparationReport,
    cover_split,
    density_threshold,
    geodesic_context,
    local_density_check,
    local_to_global_bound,
    neighborhood_probe,
    relator_neighborhood,
    report_to_csv,
    report_to_json,
    separation_constant,
    verify_linear_separation,
)

__all__ = [n for n in dir() if not n.startswith("_")]
