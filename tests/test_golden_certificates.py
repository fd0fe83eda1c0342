"""Honest certificates are byte-identical across changes to the codec.

tests/data/golden_certificates.tsv holds one `label<TAB>payload bits<TAB>hex`
line per certificate: the hex of `Certificate.to_bytes()` (the tag byte, then
the payload) for honest hash, id-list and bitmap certificates of small
instances under every policy kind, and for a few CSP hash certificates. The
test proves each one again and compares. Rewrite the file only when a change
to the certificate bytes is intended:

    PYTHONPATH=src python3 tests/test_golden_certificates.py
"""

from fractions import Fraction
from pathlib import Path

from globalcert import (
    CspConstraint,
    CspInstance,
    CspParams,
    IdRangePolicy,
    SchemeParams,
    clique,
    cycle,
    graph_to_csp,
    prove_bitmap,
    prove_csp,
    prove_hash,
    prove_idlist,
    random_h_colorable_graph,
    random_id_assignment,
)

GOLDEN = Path(__file__).parent / "data" / "golden_certificates.tsv"
TARGETS = {"K2": clique(2), "K3": clique(3), "C5": cycle(5)}
INSTANCES = [("K2", 3), ("K2", 5), ("K3", 4), ("C5", 5)]
POLICIES = ["fixed:100", "poly:2", "poly:4", "doubexp"]
LAMBDAS = ["1", "3/2", "2"]
BITMAP_MAX_IDS = 4096  # larger bitmaps would swamp the file


def _not_all_equal(variables: int, domain: int, seed: int) -> CspInstance:
    """Ternary not-all-equal constraints over consecutive variables."""
    rows = frozenset(
        (a, b, c) for a in range(domain) for b in range(domain) for c in range(domain)
        if not a == b == c
    )
    constraints = tuple(CspConstraint((v, v + 1, v + 2), rows) for v in range(variables - 2))
    return CspInstance(variables, domain, random_id_assignment(variables, variables**2, seed), constraints)


def golden_cases():
    """(label, certificate) for every pinned certificate, in file order."""
    for name, n in INSTANCES:
        target = TARGETS[name]
        graph = random_h_colorable_graph(n, target, 0.6, n)
        for text in POLICIES:
            policy = IdRangePolicy.parse(text)
            id_range = policy.evaluate(n)
            ids = random_id_assignment(n, id_range, n + 1)
            where = f"{name} n={n} {text}"
            for lam in LAMBDAS:
                params = SchemeParams(target, policy, Fraction(lam))
                yield f"hash {where} lambda={lam}", prove_hash(graph, ids, params)
            params = SchemeParams(target, policy)
            yield f"idlist {where}", prove_idlist(graph, ids, params)
            if id_range <= BITMAP_MAX_IDS:
                yield f"bitmap {where}", prove_bitmap(graph, ids, params)
    k3 = TARGETS["K3"]
    graph = random_h_colorable_graph(5, k3, 0.6, 7)
    csps = [
        ("graph K3 n=5", graph_to_csp(graph, random_id_assignment(5, 25, 8), k3)),
        ("nae d=2 n=5", _not_all_equal(5, 2, 9)),
        ("nae d=3 n=4", _not_all_equal(4, 3, 10)),
        ("free d=1 n=2", CspInstance(2, 1, random_id_assignment(2, 4, 11), ())),
    ]
    for label, instance in csps:
        for lam in ("1", "3/2"):
            params = CspParams(instance.domain_size, IdRangePolicy.poly(2), Fraction(lam))
            yield f"csp {label} poly:2 lambda={lam}", prove_csp(instance, params)


def _row(label, cert) -> str:
    return f"{label}\t{cert.payload.length}\t{cert.to_bytes().hex()}"


def test_honest_certificates_match_the_golden_bytes():
    expected = GOLDEN.read_text(encoding="ascii").splitlines()
    actual = [_row(label, cert) for label, cert in golden_cases()]
    assert [line.split("\t")[0] for line in actual] == [line.split("\t")[0] for line in expected]
    assert [a for a, e in zip(actual, expected) if a != e] == []


if __name__ == "__main__":
    GOLDEN.write_text("".join(_row(label, cert) + "\n" for label, cert in golden_cases()), encoding="ascii")
