"""Spans around the program's layers, recorded from outside the program.

Tracer.install replaces each traced function at the module attribute or
dispatch-table entry where its callers look it up, and uninstall puts the
originals back. Spans (layer, start, end, parent, measured value) live in
flat arrays, which the garbage collector does not scan, and are written to
a file only at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

from globalcert import csp, graphs, harness, hashing, oracle, schemes
from globalcert.schemes import SchemeTag


def _probes(args, result):
    return result.probes


def _result_bits(args, result):
    return getattr(result, "payload", result).length


def _payload_bits(args, result):
    return args[0].length


def _vertices(args, result):
    return args[0].vertex_count


def _certs_tried(args, result):
    return result.certificates_tried


def _patch_points():
    """(owner, attribute or key, layer, measure) for every traced callable.

    A function imported by name into another module is patched there too,
    because that module's callers look it up in their own namespace.
    """
    return [
        (hashing, "perfect_hash_search", "hashing.scan", _probes),
        (schemes, "perfect_hash_search", "hashing.scan", _probes),
        (csp, "perfect_hash_search", "hashing.scan", _probes),
        (hashing, "family_size", "hashing.family_size", None),
        (oracle, "family_size", "hashing.family_size", None),
        (oracle, "find_homomorphism", "oracle.solve", None),
        (oracle, "exists_homomorphism", "oracle.solve", None),
        (csp, "solve_csp", "csp.solve", None),
        (oracle, "solve_csp", "csp.solve", None),
        (csp, "verify_csp_variable", "csp.check", None),
        (schemes, "encode_hash_certificate", "schemes.encode", _result_bits),
        (schemes, "encode_idlist_certificate", "schemes.encode", _result_bits),
        (schemes, "encode_bitmap_certificate", "schemes.encode", _result_bits),
        (oracle, "encode_hash_certificate", "schemes.encode", _result_bits),
        (oracle, "encode_assignment_fields", "schemes.encode", _result_bits),
        (csp, "encode_assignment_fields", "schemes.encode", _result_bits),
        # the bitmap prover lays its payload out inline; with the solve it
        # calls subtracted as a child span, its self time is that encoding
        (getattr(schemes, "_PROVERS", {}), SchemeTag.BITMAP, "schemes.encode", _result_bits),
        (schemes, "decode_hash_payload", "schemes.decode", _payload_bits),
        (schemes, "decode_idlist_payload", "schemes.decode", _payload_bits),
        # the bitmap verifier's only decode step: find the content length
        (schemes, "_bitmap_content_bits", "schemes.decode", _payload_bits),
        (csp, "decode_assignment_fields", "schemes.decode", _payload_bits),
        (getattr(schemes, "_VERIFIERS", {}), SchemeTag.HASH, "schemes.check", None),
        (getattr(schemes, "_VERIFIERS", {}), SchemeTag.IDLIST, "schemes.check", None),
        (getattr(schemes, "_VERIFIERS", {}), SchemeTag.BITMAP, "schemes.check", None),
        (harness, "local_view", "graphs.local_view", None),
        (oracle, "local_view", "graphs.local_view", None),
        (graphs, "random_h_colorable_graph", "graphs.generate", None),
        (graphs, "random_id_assignment", "graphs.generate", None),
        (harness, "run_all_nodes", "harness.network", _vertices),
        (oracle, "audit_soundness", "oracle.audit", _certs_tried),
        (oracle, "audit_csp_soundness", "oracle.audit", _certs_tried),
    ]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, layer: str, measure):
        if layer not in self.layers:
            self.layers.append(layer)
        code = self.layers.index(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(code)
            self.parent.append(self._open[-1] if self._open else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(0.0)
            self._open.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if measure is not None:
                self.value[idx] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced callable the program still has; the names of
        those it no longer has are kept in `missing`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, key, layer, measure in _patch_points():
            try:
                original = _get(owner, key)
            except (AttributeError, KeyError):
                self.missing.append(f"{getattr(owner, '__name__', 'dispatch table')}.{key}")
                continue
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, layer, measure))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            _set(owner, key, original)
        self._saved.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self seconds, inclusive seconds, span count, value sum.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0})
        for i in range(count):
            duration = self.end[i] - self.start[i]
            row = out[self.layers[self.layer[i]]]
            row["self_s"] += duration - child[i]
            row["total_s"] += duration
            row["calls"] += 1
            row["value"] += self.value[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span\tlayer\tstart_s\tend_s\tparent\tvalue\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.layers[self.layer[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.value[i]:g}\n"
                )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(totals, passes: int, traced_ops_per_s: float, untraced_ops_per_s: float, spans: int):
    """The per-layer table: name -> (value, unit). Every rate is listed next
    to the count and the seconds it is computed from."""
    def row(layer):
        return totals.get(layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0})

    scan, size, solve = row("hashing.scan"), row("hashing.family_size"), row("oracle.solve")
    csp_solve, csp_check = row("csp.solve"), row("csp.check")
    encode, decode, check = row("schemes.encode"), row("schemes.decode"), row("schemes.check")
    view, generate = row("graphs.local_view"), row("graphs.generate")
    network, audit = row("harness.network"), row("oracle.audit")
    return {
        "hashing.scan.s": (scan["self_s"], "s"),
        "hashing.scan.calls": (scan["calls"], "count"),
        "hashing.scan.probes": (int(scan["value"]), "count"),
        "hashing.scan.probes_per_s": (_rate(scan["value"], scan["self_s"]), "1/s"),
        "hashing.family_size.s": (size["self_s"], "s"),
        "hashing.family_size.calls": (size["calls"], "count"),
        "oracle.solve.s": (solve["self_s"], "s"),
        "oracle.solve.calls": (solve["calls"], "count"),
        "csp.solve.s": (csp_solve["self_s"], "s"),
        "csp.solve.calls": (csp_solve["calls"], "count"),
        "csp.check.s": (csp_check["self_s"], "s"),
        "csp.check.calls": (csp_check["calls"], "count"),
        "schemes.encode.s": (encode["self_s"], "s"),
        "schemes.encode.calls": (encode["calls"], "count"),
        "schemes.encode.bits": (int(encode["value"]), "bit"),
        "schemes.decode.s": (decode["self_s"], "s"),
        "schemes.decode.total_s": (decode["total_s"], "s"),
        "schemes.decode.calls": (decode["calls"], "count"),
        "schemes.decode.bits": (int(decode["value"]), "bit"),
        "schemes.decode.bits_per_s": (_rate(decode["value"], decode["total_s"]), "bit/s"),
        "schemes.check.s": (check["self_s"], "s"),
        "schemes.check.nodes": (check["calls"], "count"),
        "graphs.local_view.s": (view["self_s"], "s"),
        "graphs.local_view.calls": (view["calls"], "count"),
        "graphs.generate.s": (generate["self_s"], "s"),
        "graphs.generate.calls": (generate["calls"], "count"),
        "harness.network.s": (network["self_s"], "s"),
        "harness.network.total_s": (network["total_s"], "s"),
        "harness.network.nodes": (int(network["value"]), "count"),
        "harness.network.nodes_per_s": (_rate(network["value"], network["total_s"]), "1/s"),
        "oracle.audit.s": (audit["self_s"], "s"),
        "oracle.audit.total_s": (audit["total_s"], "s"),
        "oracle.audit.calls": (audit["calls"], "count"),
        "oracle.audit.certs_tried": (int(audit["value"]), "count"),
        "oracle.audit.certs_per_s": (_rate(audit["value"], audit["total_s"]), "1/s"),
        "trace.passes": (passes, "count"),
        "trace.spans": (spans, "count"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced_ops_per_s, "1/s"),
        "trace.overhead_ratio": (_rate(traced_ops_per_s, untraced_ops_per_s), "ratio"),
    }
