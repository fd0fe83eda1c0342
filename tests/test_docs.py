"""The examples in the docs run as written: README's `python` block, with
the audit outcome its comments describe."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_block_runs_and_its_audit_reads_as_described():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.property_holds and not report.certificate_accepted_exists
    assert report.certificates_tried == 31274
