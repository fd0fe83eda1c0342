"""Tests of the benchmark itself: the reference agrees with the program's
frozen facts, and every output check rejects a wrong output.

    python3 -m pytest perfbench -q
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import workloads as wl
from globalcert import harness, hashing, schemes
from globalcert.bits import Bits
from globalcert.graphs import BUILTIN_TARGETS, IdRangePolicy, random_h_colorable_graph, random_id_assignment
from globalcert.schemes import Certificate, HashCertificate, SchemeParams, SchemeTag

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "mixer_golden.txt"


def longer(cert: Certificate) -> Certificate:
    """The certificate with one zero bit appended to its payload."""
    bits = ref.Reader(cert.payload.data, cert.payload.length).bits + "0"
    return Certificate(cert.scheme, Bits(ref.pack(bits), len(bits)))


def small_instance(n, target, seed, policy):
    graph = random_h_colorable_graph(n, BUILTIN_TARGETS[target], 0.5, seed)
    return wl.Instance(target, graph, random_id_assignment(n, policy.evaluate(n), seed))


def test_mixer_matches_golden_vectors():
    assert ref.check_golden_vectors(GOLDEN) >= 40


@pytest.mark.parametrize(
    "k, ell, size",
    [(1, 2, 3), (2, 16, 60), (3, 8, 181), (4, 8, 656), (12, 20736, 28006552), (8, 1 << 64, 1526251)],
)
def test_family_size_matches_frozen_values(k, ell, size):
    assert ref.family_size(k, ell) == size


def test_first_perfect_index_is_the_smallest_injective_member():
    keys = [3, 77, 1000, 4242, 9999, 123456]
    index = ref.first_perfect_index(keys, 6, 10**6)
    table = ref.bucket_table(range(index + 1), keys, 6)
    injective = [len(set(row.tolist())) == 6 for row in table]
    assert injective[-1] and not any(injective[:-1])
    assert index == hashing.find_perfect_hash(frozenset(keys), 6, 10**6)
    assert ref.first_perfect_index(keys, 6, index) is None


def test_hash_index_above_64_bits_reads_modulo():
    assert ref.buckets_of((1 << 64) + 5, [17, 99], 7) == ref.buckets_of(5, [17, 99], 7)


def test_prove_check_rejects_a_non_minimal_index_and_a_long_payload():
    inst = small_instance(7, "K3", 3, wl.PROVE_POLICY)
    params = SchemeParams(BUILTIN_TARGETS["K3"], wl.PROVE_POLICY)
    cert, result = harness.prove_and_run(inst.graph, inst.ids, SchemeTag.HASH, params)
    minimal = ref.first_perfect_index(inst.ids.ids, 7, 10**6)
    wl.check_prove((cert, result.decisions), inst, Fraction(1), minimal)

    _, _, table = ref.read_hash_payload(cert.payload.data, cert.payload.length, wl.PROVE_POLICY.evaluate, 1, 3)
    colour = [table[b] for b in ref.buckets_of(minimal, inst.ids.ids, 7)]
    later = next(i for i in range(minimal + 1, 10**6) if len(set(ref.buckets_of(i, inst.ids.ids, 7))) == 7)
    relabelled = [0] * 7
    for b, c in zip(ref.buckets_of(later, inst.ids.ids, 7), colour):
        relabelled[b] = c
    other = schemes.encode_certificate(HashCertificate(7, later, tuple(relabelled)), params)
    accepted = harness.run_all_nodes(inst.graph, inst.ids, other, params)
    assert accepted.all_accept
    with pytest.raises(ref.CheckFailed, match="smallest injective"):
        wl.check_prove((other, accepted.decisions), inst, Fraction(1), minimal)
    with pytest.raises(ref.CheckFailed, match="layout"):
        wl.check_prove((longer(cert), result.decisions), inst, Fraction(1), minimal)


@pytest.mark.parametrize("scheme", [SchemeTag.IDLIST, SchemeTag.BITMAP])
def test_solve_check_rejects_a_payload_one_bit_too_long(scheme):
    inst = small_instance(30, "C5", 5, wl.SOLVE_POLICY)
    cert = schemes.prove_certificate(inst.graph, inst.ids, scheme, SchemeParams(BUILTIN_TARGETS["C5"], wl.SOLVE_POLICY))
    wl.check_solve(cert, inst, scheme)
    with pytest.raises(ref.CheckFailed):
        wl.check_solve(longer(cert), inst, scheme)


def test_solve_check_rejects_a_colour_at_an_unused_identifier():
    inst = small_instance(20, "K2", 9, wl.SOLVE_POLICY)
    cert = schemes.prove_certificate(
        inst.graph, inst.ids, SchemeTag.BITMAP, SchemeParams(BUILTIN_TARGETS["K2"], wl.SOLVE_POLICY)
    )
    unused = next(i for i in range(400) if i not in inst.ids.ids)
    data = bytearray(cert.payload.data)
    data[unused // 8] |= 0x80 >> (unused % 8)
    with pytest.raises(ref.CheckFailed, match="outside the graph"):
        wl.check_solve(Certificate(SchemeTag.BITMAP, Bits(bytes(data), cert.payload.length)), inst, SchemeTag.BITMAP)


@pytest.fixture(scope="module")
def verify_ops():
    return wl.build_verify(wl.Draws(7))


@pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_verify_check_rejects_one_flipped_decision(verify_ops, case):
    # cases 0..8: the honest, recoloured and truncated certificates of the
    # hash, id-list and bitmap rows with the K2 target, in build order
    op = verify_ops[(case // 3) * 9 + case % 3]
    result = op.run()
    op.check(result)
    flipped = list(result.decisions)
    flipped[len(flipped) // 2] = not flipped[len(flipped) // 2]
    with pytest.raises(ref.CheckFailed, match="differ"):
        op.check(replace(result, decisions=tuple(flipped)))


def test_verify_mutations_make_a_known_set_reject(verify_ops):
    honest, recoloured, truncated = (op.run() for op in verify_ops[:3])
    assert honest.all_accept
    assert 0 < recoloured.decisions.count(False) < len(recoloured.decisions)
    assert not any(truncated.decisions)


@pytest.fixture(scope="module")
def audit_ops():
    return wl.build_audit(wl.Draws(7))


@pytest.mark.parametrize("row", [0, 5, 10, 13])
def test_audit_check_rejects_tried_off_by_one(audit_ops, row):
    op = audit_ops[row]
    report = op.run()
    op.check(report)
    assert not report.certificate_accepted_exists
    for delta in (-1, 1):
        with pytest.raises(ref.CheckFailed, match="tried"):
            op.check(replace(report, certificates_tried=report.certificates_tried + delta))


def test_audit_check_rejects_a_wrong_verdict_and_a_rejected_witness(audit_ops):
    sweep, witness = audit_ops[0], audit_ops[14]
    report = witness.run()
    witness.check(report)
    assert report.certificate_accepted_exists
    with pytest.raises(ref.CheckFailed, match="property_holds"):
        witness.check(replace(report, property_holds=False))
    params = SchemeParams(BUILTIN_TARGETS["C5"], IdRangePolicy.fixed(8))
    all_zero = schemes.encode_certificate(HashCertificate(5, 0, (0,) * 5), params)
    with pytest.raises(ref.CheckFailed, match="not accepted"):
        witness.check(replace(report, witness=all_zero))
    with pytest.raises(ref.CheckFailed, match="certificate_accepted_exists"):
        sweep.check(replace(sweep.run(), certificate_accepted_exists=True))


def test_tracer_restores_every_patched_function_and_subtracts_children():
    from tracing import Tracer, _get, _patch_points

    before = [_get(owner, key) for owner, key, _, _ in _patch_points()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(_get(owner, key) is not fn for (owner, key, _, _), fn in zip(_patch_points(), before))
        inst = small_instance(8, "K2", 1, wl.PROVE_POLICY)
        harness.prove_and_run(inst.graph, inst.ids, SchemeTag.HASH, SchemeParams(BUILTIN_TARGETS["K2"], wl.PROVE_POLICY))
    finally:
        tracer.uninstall()
    assert [_get(owner, key) for owner, key, _, _ in _patch_points()] == before
    totals = tracer.totals()
    network = totals["harness.network"]
    children = sum(totals[name]["total_s"] for name in ("graphs.local_view", "schemes.check"))
    assert network["calls"] == 1 and network["value"] == 8
    assert network["self_s"] == pytest.approx(network["total_s"] - children, abs=1e-9)
    assert totals["schemes.check"]["calls"] == 8 and totals["hashing.scan"]["calls"] == 1
