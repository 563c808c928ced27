"""Coloring-based persistence certificates for tangles in knot diagrams.

A tangle is persistent when its appearance inside any knot diagram forces
that knot to be nontrivial.  This package certifies persistence by finding
nontrivial colorings that give every tangle endpoint the same color: such a
coloring extends monochromatically over any host diagram, so the host is
nontrivially colored and therefore knotted.

The layers, bottom up:

- diagram:     planar diagram (PD) codes, faces, components, validation
- colorings:   Fox coloring solver (any modulus, exact counts), finite
               quandles, determinants, the coloring classes (each
               carries its own crossing rule) and the one coloring
               check every other layer uses
- moves:       Reidemeister rewriting with consistent recoloring, and the
               face-path transport that carries an arc next to another
- tangle:      closures, addition, mirrors, rational tangles and their
               fractions, linking sums
- persistence: cut constructions, certificate search and verification,
               irreducibility evidence reports
- cli:         the `tanglecert` command
"""

from .braids import braid_closure
from .colorings import (
    ColoringError,
    FoxColoring,
    FoxSolutionSpace,
    Quandle,
    QuandleAxiomError,
    QuandleColoring,
    QuandleSpace,
    determinant,
    dihedral,
    fox_matrix,
    fox_solution_space,
    has_nontrivial_fox,
    link_determinant,
    parse_quandle,
    quandle_colorings,
    quandle_space,
    validate_quandle,
    verify_coloring,
)
from .diagram import (
    ArcOccurrenceError,
    Crossing,
    Diagram,
    DiagramError,
    Face,
    OrientationError,
    PDSyntaxError,
    PlanarityError,
    co_facial,
    components,
    faces,
    max_label,
    orient,
    parse_diagram,
    relabel,
    serialize,
    strand_classes,
    unoriented,
)
from .moves import (
    MoveError,
    MoveRecord,
    TransportResult,
    apply_r1,
    apply_r2_over,
    apply_r3,
    find_r3_triangles,
    r2_transport,
    recolor_after_move,
    records_to_json,
    undo_move,
)
from .persistence import (
    CertificateError,
    CertificateNotFound,
    CertificateSearchReport,
    IrreducibilityReport,
    PersistenceCertificate,
    VerificationReport,
    build_T_plus_Tstar,
    cut_arc_once,
    cut_arc_twice,
    cut_two_arcs,
    ensure_same_colored_pair,
    find_certificate,
    find_certificate_report,
    find_same_colored_pairs,
    irreducibility_report,
    krebes_gcd,
    verify_certificate,
)
from .tangle import (
    TangleError,
    TangleFraction,
    close_one_tangle,
    connectivity,
    denominator_closure,
    infinity_tangle,
    insert_into_host,
    linking_sum,
    mirror,
    numerator_closure,
    rational_tangle,
    rotate90,
    tangle_add,
    tangle_fraction,
    zero_tangle,
)

__version__ = "0.1.0"
