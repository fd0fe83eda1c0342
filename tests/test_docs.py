"""The examples in the docs run as written: README's `python` block, with
the audit outcome its comments describe, and its `console` blocks, with
the output and exit code of every command."""

import re
import shlex
from pathlib import Path

from globalcert.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# console commands that install or test the package, not run it
NOT_RUN = ("pip", "pytest")


def test_python_block_runs_and_its_audit_reads_as_described():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.property_holds and not report.certificate_accepted_exists
    assert report.certificates_tried == 31274


def console_sessions():
    """Each `console` block as a list of (command words, expected output
    lines); a `...` line stands for any run of lines."""
    sessions = []
    for block in re.findall(r"^```console\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:], comments=True), []))
            else:
                steps[-1][1].append(line)
        sessions.append(steps)
    return sessions


def matches(expected: list[str], out: str) -> bool:
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in expected)
    return re.fullmatch(pattern, out) is not None


def test_console_blocks_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sessions = console_sessions()
    assert len(sessions) == 2
    run = 0
    for steps in sessions:
        for words, expected in steps:
            if words[0] in NOT_RUN:
                continue
            if words[0] == "printf":
                # printf '<format>' > <file>, where the format's only escape is \n
                assert len(words) == 4 and words[2] == ">", words
                Path(words[3]).write_text(words[1].replace("\\n", "\n"), encoding="utf-8")
                continue
            assert words[0] == "globalcert", words
            assert main(words[1:]) == 0, words
            out = capsys.readouterr().out
            assert matches(expected, out), (words, expected, out)
            run += 1
    assert run == 5
