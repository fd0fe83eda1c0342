import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import globalcert
from globalcert import (
    Graph,
    IdAssignment,
    IdRangePolicy,
    clique,
    graph_to_csp,
    parse_csp,
    parse_graph,
    perfect_hash_search,
    random_id_assignment,
    serialize_csp,
    serialize_graph,
)
from globalcert.cli import main


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """`python -m globalcert *argv` in a child process that imports the
    package from where this process did, so a bare `pytest` in a checkout
    needs no PYTHONPATH."""
    src = str(Path(globalcert.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "globalcert", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


def gen_graph(workspace, name="g.txt", n=6, seed=3, policy="poly:2", target="K2"):
    path = workspace / name
    code = run_cli(
        "gen", "--n", str(n), "--target", target, "--density", "0.8",
        "--seed", str(seed), "--id-range", policy, "--out", str(path),
    )
    assert code == 0
    return path


class TestPipelines:
    def test_prove_then_verify_accepts(self, workspace, capsys):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        for scheme in ("hash", "idlist", "bitmap"):
            assert run_cli(
                "prove", "--scheme", scheme, "--graph", str(graph),
                "--target", "K2", "--id-range", "poly:2", "--out", str(cert),
            ) == 0
            assert run_cli(
                "verify", "--graph", str(graph), "--cert", str(cert),
                "--target", "K2", "--id-range", "poly:2",
            ) == 0
        out = capsys.readouterr().out
        assert "accept" in out and "reject" not in out

    def test_cross_process_round_trip(self, workspace):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        prove = run_module(
            "prove", "--scheme", "hash", "--graph", str(graph), "--target", "K2",
            "--id-range", "poly:2", "--out", str(cert),
        )
        assert prove.returncode == 0, prove.stderr
        verify = run_module(
            "verify", "--graph", str(graph), "--cert", str(cert), "--target", "K2",
            "--id-range", "poly:2",
        )
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout.count("accept") == 6

    def test_unsatisfiable_input_exits_3(self, workspace, capsys):
        k3 = workspace / "k3.txt"
        k3.write_text("g 3 8\nid 0 0\nid 1 1\nid 2 2\ne 0 1\ne 1 2\ne 0 2\n")
        code = run_cli(
            "prove", "--scheme", "hash", "--graph", str(k3),
            "--target", "K2", "--out", str(workspace / "c.bin"),
        )
        assert code == 3

    def test_corrupted_certificate_exits_1_and_lists_rejecting_ids(self, workspace, capsys):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        run_cli(
            "prove", "--scheme", "hash", "--graph", str(graph),
            "--target", "K2", "--id-range", "poly:2", "--out", str(cert),
        )
        capsys.readouterr()
        blob = bytearray(cert.read_bytes())
        blob[-1] ^= 0x55
        cert.write_bytes(bytes(blob))
        code = run_cli(
            "verify", "--graph", str(graph), "--cert", str(cert),
            "--target", "K2", "--id-range", "poly:2",
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "rejecting:" in out

    def test_usage_error_exits_2(self, workspace, capsys):
        assert run_cli("prove", "--scheme", "zzz", "--out", "x") == 2
        assert run_cli("verify", "--cert", str(workspace / "missing.bin")) == 2
        assert run_cli("prove", "--scheme", "hash", "--out", "x") == 2  # no input
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        assert run_cli(
            "prove", "--scheme", "hash", "--graph", str(graph), "--id-range", "poly:2", "--out", str(cert),
        ) == 0
        capsys.readouterr()
        for inputs in (
            ("--graph", str(graph), "--csp", str(graph)),
            (),
            ("--graph", str(graph), "--target", str(workspace / "missing.txt")),
        ):
            assert run_cli("verify", *inputs, "--cert", str(cert), "--id-range", "poly:2") == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.endswith("\n")
        for argv, message in (
            (("prove", "--scheme", "hash", "--graph", str(graph), "--id-range", "poly:1", "--out", str(cert)),
             "InvalidParams: identifier 15 outside policy range M(n) = 6\n"),
            (("bench", "--schemes", "hash,foo", "--row", "n=4"), "InvalidParams: unknown scheme 'foo'\n"),
            (("audit", "--graph", str(graph), "--max-n", "0"), "InvalidParams: bounds must be positive\n"),
        ):
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == message

    def test_identifiers_outside_the_range_exit_2_before_any_search(self, workspace, capsys):
        # a search for this instance exhausts the solver's budget, so only a
        # prover that checks the identifiers first exits 2, and at once
        graph, instance, cert = workspace / "g.txt", workspace / "c.txt", workspace / "c.bin"
        for path, extra in ((graph, ()), (instance, ("--csp",))):
            assert run_cli(
                "gen", "--n", "200", "--target", "K3", "--density", "0.1", "--seed", "0",
                "--id-range", "poly:2", *extra, "--out", str(path),
            ) == 0
        inputs = [("--scheme", scheme, "--graph", str(graph)) for scheme in ("hash", "idlist", "bitmap")]
        for argv in (*inputs, ("--scheme", "hash", "--csp", str(instance))):
            assert run_cli("prove", *argv, "--target", "K3", "--id-range", "poly:1", "--out", str(cert)) == 2
            assert capsys.readouterr().err == "InvalidParams: identifier 25247 outside policy range M(n) = 200\n"

    def test_invalid_option_exits_2_whatever_the_certificate_tag(self, workspace, capsys):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        cert.write_bytes(bytes([0x7F, 0x00]))
        capsys.readouterr()
        for option in (("--id-range", "poly:x"), ("--lambda", "1/2")):
            assert run_cli("verify", "--graph", str(graph), "--cert", str(cert), *option) == 2
            assert capsys.readouterr().out == ""

    def test_unexpected_exception_exits_2_with_one_line(self, workspace, capsys, monkeypatch):
        import globalcert.cli as cli

        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "_cmd_gen", broken)
        assert run_cli("gen", "--n", "4") == 2
        assert capsys.readouterr().err == "RuntimeError: boom\n"

    def test_long_path_prove_is_not_a_reject_and_prints_no_traceback(self, workspace):
        from globalcert import Graph, IdAssignment, serialize_graph

        n = 1500
        path = workspace / "path.txt"
        path.write_text(serialize_graph(
            Graph.of(n, [(v, v + 1) for v in range(n - 1)]),
            IdAssignment(tuple(range(n)), n),
        ))
        cert = workspace / "c.bin"
        prove = run_module(
            "prove", "--scheme", "idlist", "--graph", str(path), "--target", "K2", "--out", str(cert),
        )
        assert prove.returncode == 0, prove.stderr
        assert prove.stderr == ""
        verify = run_module("verify", "--graph", str(path), "--cert", str(cert), "--target", "K2")
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout.count("accept") == n

    def test_solver_over_budget_exits_3_with_one_line(self, workspace, capsys, monkeypatch):
        import globalcert.oracle as oracle
        from globalcert import TooLarge

        def over_budget(graph, target, budget=10**7):
            raise TooLarge("search budget of 10000000 nodes exhausted")

        monkeypatch.setattr(oracle, "find_homomorphism", over_budget)
        graph = gen_graph(workspace)
        capsys.readouterr()
        code = run_cli(
            "prove", "--scheme", "idlist", "--graph", str(graph),
            "--target", "K2", "--id-range", "poly:2", "--out", str(workspace / "c.bin"),
        )
        assert code == 3
        assert capsys.readouterr().err == "TooLarge: search budget of 10000000 nodes exhausted\n"

    def test_audit_over_max_space_exits_3(self, workspace, capsys):
        graph = gen_graph(workspace, n=4)
        capsys.readouterr()
        code = run_cli(
            "audit", "--graph", str(graph), "--target", "K2",
            "--id-range", "poly:2", "--max-space", "1",
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("TooLarge: certificate space")

    def test_unusable_tag_byte_rejects_everywhere(self, workspace, capsys):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        run_cli(
            "prove", "--scheme", "hash", "--graph", str(graph),
            "--target", "K2", "--id-range", "poly:2", "--out", str(cert),
        )
        capsys.readouterr()
        blob = bytearray(cert.read_bytes())
        blob[0] = 0x7F
        cert.write_bytes(bytes(blob))
        code = run_cli(
            "verify", "--graph", str(graph), "--cert", str(cert),
            "--target", "K2", "--id-range", "poly:2",
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("reject") >= 6

    def test_empty_certificate_file_rejects_everywhere(self, workspace, capsys):
        graph = gen_graph(workspace)
        cert = workspace / "c.bin"
        cert.write_bytes(b"")
        capsys.readouterr()
        code = run_cli("verify", "--graph", str(graph), "--cert", str(cert), "--id-range", "poly:2")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.count(" reject\n") == 6 and "accept" not in captured.out
        assert captured.err == ""


    @pytest.mark.parametrize("claim, length", [(100_000, 100_097), (40_000, 60_000)])
    @pytest.mark.parametrize("kind", ["--graph", "--csp"])
    def test_hash_claim_the_payload_cannot_hold_rejects_everywhere(self, workspace, capsys, claim, length, kind):
        from globalcert import Bits

        instance = workspace / "in.txt"
        gen = ["--csp"] if kind == "--csp" else []
        assert run_cli("gen", "--n", "6", "--seed", "1", "--id-range", "poly:2", "--out", str(instance), *gen) == 0
        payload = Bits.from01(format(claim, "b").zfill(2 * claim.bit_length() - 1).ljust(length, "0"))
        cert = workspace / "c.bin"
        cert.write_bytes(b"\x03" + payload.data)
        capsys.readouterr()
        code = run_cli("verify", kind, str(instance), "--cert", str(cert), "--id-range", "poly:2")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.count(" reject\n") == 6 and "accept" not in captured.out
        assert captured.err == ""


class TestGenDeterminism:
    def test_byte_identical_outputs(self, workspace):
        a = gen_graph(workspace, "a.txt", seed=11)
        b = gen_graph(workspace, "b.txt", seed=11)
        assert a.read_bytes() == b.read_bytes()

    def test_target_shorthands(self, workspace):
        for target in ("K2", "K3", "C5"):
            gen_graph(workspace, f"{target}.txt", target=target, seed=2)

    @pytest.mark.parametrize("argv, cap", [
        (("--n", "100000"), "vertex pairs"),
        (("--n", "10000", "--density", "0.6"), "expected edges"),
    ])
    def test_inputs_over_a_cap_exit_2(self, workspace, capsys, argv, cap):
        out = workspace / "g.txt"
        assert run_cli("gen", *argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("InvalidParams: ") and cap in captured.err
        assert captured.err.count("\n") == 1


class TestAuditCommand:
    def test_report_line_and_exit(self, workspace, capsys):
        k3 = workspace / "k3.txt"
        k3.write_text("g 3 8\nid 0 0\nid 1 1\nid 2 2\ne 0 1\ne 1 2\ne 0 2\n")
        code = run_cli("audit", "--graph", str(k3), "--target", "K2", "--scheme", "hash")
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("property=false accepted=false tried=12142 witness=")

    def test_accepting_audit_prints_hex_witness(self, workspace, capsys):
        graph = gen_graph(workspace, n=3, policy="fixed:8")
        code = run_cli(
            "audit", "--graph", str(graph), "--target", "K2",
            "--scheme", "bitmap", "--id-range", "fixed:8",
        )
        out = capsys.readouterr().out.strip()
        assert code == 0
        fields = dict(part.split("=", 1) for part in out.split())
        assert fields["property"] == "true" and fields["accepted"] == "true"
        bytes.fromhex(fields["witness"])


class TestBenchCommand:
    def test_csv_written(self, workspace, capsys):
        out = workspace / "bench.csv"
        code = run_cli(
            "bench", "--row", "n=4,target=K2,policy=poly:4",
            "--schemes", "hash,idlist", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,nprime,policy,M,scheme,size_bits,prover_probes,status,wall_ms"
        assert len(lines) == 3


    @pytest.mark.parametrize("row, bad", [
        ("n=4,denisty=0.1", "'denisty=0.1'"),
        ("n4", "'n4'"),
        ("n=4,", "''"),
        ("target=K2,policy=poly:4", "no n="),
    ])
    def test_a_row_of_unknown_keys_exits_2(self, workspace, capsys, row, bad):
        out = workspace / "bench.csv"
        assert run_cli("bench", "--row", row, "--schemes", "hash", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("ParseError: ") and bad in captured.err
        assert captured.err.count("\n") == 1


class TestProbesReport:
    """`prove`'s `probes=` and the bench CSV's prover_probes column: the
    honest perfect-hash scan's probe count, found again here with
    `perfect_hash_search`, and 0 for the schemes that do not scan."""

    N, SEED, POLICY = 8, 1, "poly:2"
    ID_RANGE = IdRangePolicy.parse(POLICY).evaluate(N)

    @pytest.mark.parametrize("source, scheme, multiplier", [
        ("--graph", "hash", "1"),
        ("--graph", "hash", "3/2"),
        ("--graph", "idlist", "1"),
        ("--graph", "bitmap", "1"),
        ("--csp", "hash", "1"),
        ("--csp", "hash", "3/2"),
        ("bench", "hash", "1"),
        ("bench", "idlist", "1"),
        ("bench", "bitmap", "1"),
    ])
    def test_reported_probes_are_the_scan_cost(self, workspace, capsys, source, scheme, multiplier):
        out = workspace / "out"
        if source == "bench":
            row = f"n={self.N},policy={self.POLICY}"
            assert run_cli("bench", "--row", row, "--schemes", scheme, "--seed", str(self.SEED),
                           "--out", str(out)) == 0
            header, line = out.read_text().splitlines()
            reported = dict(zip(header.split(","), line.split(",")))["prover_probes"]
            ids = random_id_assignment(self.N, self.ID_RANGE, self.SEED).ids
        else:
            instance = workspace / "in.txt"
            gen = ["--csp"] if source == "--csp" else []
            assert run_cli("gen", "--n", str(self.N), "--seed", str(self.SEED), "--id-range", self.POLICY,
                           "--out", str(instance), *gen) == 0
            assert run_cli("prove", "--scheme", scheme, source, str(instance), "--id-range", self.POLICY,
                           "--lambda", multiplier, "--out", str(out)) == 0
            reported = capsys.readouterr().out.split("probes=")[1].strip()
            text = instance.read_text()
            ids = (parse_csp(text).ids if source == "--csp" else parse_graph(text)[1]).ids
        buckets = math.ceil(Fraction(multiplier) * self.N)
        expected = perfect_hash_search(frozenset(ids), buckets, self.ID_RANGE).probes if scheme == "hash" else 0
        assert int(reported) == expected
        assert (expected > 1) == (scheme == "hash")


class TestCspPipeline:
    def test_gen_prove_verify_csp(self, workspace, capsys):
        csp = workspace / "inst.csp"
        assert run_cli(
            "gen", "--n", "5", "--target", "K2", "--density", "0.7",
            "--seed", "4", "--id-range", "fixed:16", "--csp", "--out", str(csp),
        ) == 0
        assert csp.read_text().startswith("csp 5 2 16")
        cert = workspace / "c.bin"
        assert run_cli(
            "prove", "--scheme", "hash", "--csp", str(csp),
            "--id-range", "fixed:16", "--out", str(cert),
        ) == 0
        assert run_cli(
            "verify", "--csp", str(csp), "--cert", str(cert), "--id-range", "fixed:16",
        ) == 0

    def test_csp_certificate_with_a_non_hash_tag_rejects_everywhere(self, workspace, capsys):
        csp = workspace / "inst.csp"
        assert run_cli(
            "gen", "--n", "6", "--target", "K3", "--density", "0.7",
            "--seed", "4", "--id-range", "fixed:64", "--csp", "--out", str(csp),
        ) == 0
        cert = workspace / "c.bin"
        assert run_cli(
            "prove", "--scheme", "hash", "--csp", str(csp),
            "--id-range", "fixed:64", "--out", str(cert),
        ) == 0
        blob = bytearray(cert.read_bytes())
        for tag in (0x01, 0x02, 0x7F):
            blob[0] = tag
            cert.write_bytes(bytes(blob))
            capsys.readouterr()
            code = run_cli(
                "verify", "--csp", str(csp), "--cert", str(cert), "--id-range", "fixed:64",
            )
            out = capsys.readouterr().out
            assert code == 1
            assert out.count(" reject\n") == 6 and "accept" not in out

    @pytest.mark.parametrize("scheme", ["idlist", "bitmap"])
    def test_csp_proves_under_the_hash_scheme_only(self, workspace, capsys, scheme):
        csp = workspace / "inst.csp"
        assert run_cli("gen", "--n", "5", "--seed", "4", "--id-range", "fixed:16", "--csp", "--out", str(csp)) == 0
        cert = workspace / "c.bin"
        capsys.readouterr()
        assert run_cli("prove", "--scheme", scheme, "--csp", str(csp), "--out", str(cert)) == 2
        captured = capsys.readouterr()
        assert captured.err == "CertificationError: CSP instances certify under the hash scheme only\n"
        assert not cert.exists()


def good_or_bad(good, bad):
    """An option value that argparse accepts, invalid one time in four;
    None leaves the option out."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


TARGETS = good_or_bad(["K2", "K3", "C5"], ["K4", "", "in.txt", "missing.txt"])
ID_RANGES = good_or_bad([None, "fixed:64", "poly:2", "doubexp"],
                        ["poly:1", "poly:x", "fixed:0", "fixed:8.5", "poly:0", "doubexp:7", "linear:2", ""])
LAMBDAS = good_or_bad([None, "1", "3/2", "2"], ["0", "-1", "1/2", "1/0", "x", "", "nan", "1e400"])
MAX_NS = good_or_bad(["1", "2", "3"], ["0", "-1", "1000000"])
SOUP = ["g", "csp", "id", "e", "ct", "#", "0", "1", "2", "3", "8", "-1", "99999999999999999999", "x", "1.5"]


@st.composite
def input_texts(draw):
    """A graph or CSP file of at most 8 vertices, as written, truncated, or
    token soup; and whether it is read with --csp."""
    n = draw(st.integers(1, 8))
    id_range = draw(st.sampled_from([n, 2 * n, n * n, 64]))
    identifiers = draw(st.lists(st.integers(0, id_range - 1), min_size=n, max_size=n, unique=True))
    ids = IdAssignment(tuple(identifiers), id_range)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    graph = Graph.of(n, [(u, v) for u, v in pairs if u != v])
    as_csp = draw(st.booleans())
    text = serialize_csp(graph_to_csp(graph, ids, clique(draw(st.integers(1, 3))))) if as_csp \
        else serialize_graph(graph, ids)
    form = draw(st.sampled_from(["whole", "whole", "whole", "truncated", "soup"]))
    if form == "truncated":
        text = text[:draw(st.integers(0, len(text)))]
    elif form == "soup":
        lines = st.lists(st.sampled_from(SOUP), min_size=1, max_size=6).map(" ".join)
        text = "\n".join(draw(st.lists(lines, max_size=12))) + "\n"
    return text, as_csp


def option(name, value):
    return () if value is None else (name, value)


def run_contained(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err):
    """Exit 0-3, no traceback, and one stderr line exactly on exit 2 or 3."""
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out + err, argv
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)


DENSITIES = good_or_bad(["0", "0.3", "0.6", "1"], ["-0.1", "1.5", "nan", "inf", "-inf"])
ROWS = st.tuples(
    good_or_bad([f"n={n}" for n in range(1, 9)], ["n=0", "n=-1", "n=x", "n=", "n4", ""]),
    st.lists(st.one_of(
        TARGETS.map("target={}".format),
        ID_RANGES.map(lambda r: "policy=poly:2" if r is None else f"policy={r}"),
        DENSITIES.map("density={}".format),
    ), max_size=3),
    good_or_bad([[]], [["denisty=0.1"], ["seed=1"]]),
).map(lambda parts: ",".join([parts[0], *parts[1], *parts[2]]))
SCHEME_LISTS = good_or_bad(["hash", "idlist,bitmap", "hash,idlist,bitmap"], ["hsah", "", "hash,", "HASH"])


class TestExitCodeContract:
    @settings(max_examples=400, deadline=None)
    @given(
        input_texts(),
        st.sampled_from(["prove", "verify", "audit"]),
        st.sampled_from(["hash", "idlist", "bitmap"]),
        TARGETS,
        ID_RANGES,
        LAMBDAS,
        MAX_NS,
        st.sampled_from(["honest", "flipped", "random", "empty"]),
        st.integers(0, 10**6),
        st.binary(max_size=24),
    )
    def test_every_run_ends_in_a_documented_exit_code(
        self, text_and_kind, command, scheme, target, id_range, multiplier, max_n, cert_kind, flip, noise,
    ):
        text, as_csp = text_and_kind
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            (workdir / "in.txt").write_text(text, encoding="utf-8")
            framework = ("--target", str(workdir / target) if target.endswith(".txt") else target,
                         *option("--id-range", id_range))
            inputs = ("--csp" if as_csp else "--graph", str(workdir / "in.txt"), *framework,
                      *option("--lambda", multiplier))
            cert = workdir / "c.bin"
            if command == "prove":
                argv = ("prove", "--scheme", scheme, *inputs, "--out", str(cert))
            elif command == "audit":
                argv = ("audit", "--graph", str(workdir / "in.txt"), *framework, "--scheme", scheme,
                        "--max-n", max_n, "--max-space", "2000")
            else:
                if cert_kind in ("honest", "flipped"):
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        main(["prove", "--scheme", scheme, *inputs, "--out", str(cert)])
                    if cert_kind == "flipped" and cert.exists() and cert.stat().st_size:
                        blob = bytearray(cert.read_bytes())
                        blob[flip // 8 % len(blob)] ^= 1 << flip % 8
                        cert.write_bytes(bytes(blob))
                else:
                    cert.write_bytes(noise if cert_kind == "random" else b"")
                argv = ("verify", *inputs, "--cert", str(cert))
            result = run_contained(argv)
        assert_contract(argv, *result)

    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans(),
        st.integers(-2, 60),
        DENSITIES,
        TARGETS,
        ID_RANGES,
        st.booleans(),
        st.lists(ROWS, min_size=1, max_size=2),
        SCHEME_LISTS,
    )
    # a bench row whose bitmap the prover refuses (M(6) = 2^64) is a status, not an exit
    @example(False, 6, "0.6", "K2", None, False, ["n=6,policy=doubexp"], "idlist,bitmap")
    def test_gen_and_bench_end_in_a_documented_exit_code(
        self, is_gen, n, density, target, id_range, as_csp, rows, schemes,
    ):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            (workdir / "in.txt").write_text("g 2 2\nid 0 0\nid 1 1\ne 0 1\n", encoding="utf-8")
            if is_gen:
                target = str(workdir / target) if target.endswith(".txt") else target
                argv = ("gen", f"--n={n}", f"--density={density}", "--target", target,
                        *option("--id-range", id_range), *(("--csp",) if as_csp else ()))
            else:
                rows = [row.replace("target=in.txt", f"target={workdir / 'in.txt'}") for row in rows]
                argv = ("bench", *(arg for row in rows for arg in ("--row", row)), "--schemes", schemes)
            assert_contract(argv, *run_contained(argv))
