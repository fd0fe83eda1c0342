import subprocess
import sys

import pytest

from globalcert.cli import main


def run_cli(*argv):
    return main(list(argv))


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
        prove = subprocess.run(
            [sys.executable, "-m", "globalcert", "prove", "--scheme", "hash",
             "--graph", str(graph), "--target", "K2", "--id-range", "poly:2",
             "--out", str(cert)],
            capture_output=True, text=True,
        )
        assert prove.returncode == 0, prove.stderr
        verify = subprocess.run(
            [sys.executable, "-m", "globalcert", "verify", "--graph", str(graph),
             "--cert", str(cert), "--target", "K2", "--id-range", "poly:2"],
            capture_output=True, text=True,
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
        prove = subprocess.run(
            [sys.executable, "-m", "globalcert", "prove", "--scheme", "idlist",
             "--graph", str(path), "--target", "K2", "--out", str(workspace / "c.bin")],
            capture_output=True, text=True,
        )
        assert prove.returncode != 1
        assert "Traceback" not in prove.stderr
        assert len(prove.stderr.splitlines()) <= 1

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


class TestGenDeterminism:
    def test_byte_identical_outputs(self, workspace):
        a = gen_graph(workspace, "a.txt", seed=11)
        b = gen_graph(workspace, "b.txt", seed=11)
        assert a.read_bytes() == b.read_bytes()

    def test_target_shorthands(self, workspace):
        for target in ("K2", "K3", "C5"):
            gen_graph(workspace, f"{target}.txt", target=target, seed=2)


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
