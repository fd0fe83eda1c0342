import os
import subprocess
import sys
from pathlib import Path

import pytest

import globalcert
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
