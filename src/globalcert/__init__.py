"""Global certification of graph homomorphism and CSP satisfiability.

A prover hands one shared certificate to the whole network; every node
checks it against nothing but its own identifier, its neighbors'
identifiers, and the certificate. Three schemes are provided (bitmap,
id-list, and the hash-compressed triplet), together with brute-force
oracles that audit completeness and soundness exhaustively at small
scale and a benchmark harness for exact certificate sizes.
"""

from .bits import Bits, gamma_len
from .csp import (
    CspConstraint,
    CspInstance,
    CspParams,
    CspView,
    csp_view,
    graph_to_csp,
    parse_csp,
    prove_csp,
    serialize_csp,
    solve_csp,
    verify_csp_variable,
)
from .errors import (
    BitmapTooLarge,
    CertificationError,
    InvalidEdge,
    InvalidId,
    InvalidParams,
    MalformedCertificate,
    NoPerfectHash,
    NotSatisfiable,
    ParseError,
    TooLarge,
)
from .graphs import (
    BUILTIN_TARGETS,
    Graph,
    IdAssignment,
    IdRangePolicy,
    LocalView,
    TargetGraph,
    clique,
    cycle,
    local_view,
    parse_graph,
    random_h_colorable_graph,
    random_id_assignment,
    serialize_graph,
)
from .harness import (
    BenchRow,
    BenchSpec,
    RunResult,
    bench_sizes,
    default_bench_specs,
    prove_and_run,
    rows_to_csv,
    run_all_nodes,
)
from .hashing import (
    HashIndex,
    PerfectHashSearch,
    eval_hash,
    family_size,
    find_perfect_hash,
    perfect_hash_search,
)
from .oracle import (
    AuditBounds,
    AuditReport,
    audit_csp_soundness,
    audit_soundness,
    exists_homomorphism,
    find_homomorphism,
)
from .schemes import (
    BitmapCertificate,
    Certificate,
    HashCertificate,
    IdListCertificate,
    SchemeParams,
    SchemeTag,
    certificate_size_bits,
    decode_certificate,
    encode_certificate,
    prove_bitmap,
    prove_certificate,
    prove_hash,
    prove_idlist,
    verify_bitmap,
    verify_certificate,
    verify_hash,
    verify_idlist,
)

__all__ = [name for name in dir() if not name.startswith("_")]
