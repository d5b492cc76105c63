"""Byte-for-byte golden output of the certificate and the report.

The files under tests/golden/ hold the JSON lines of 180 certificates (the
18 Table A witnesses, the 2 dependent controls, and the words A, BA, B^2A
and AB^-1A^2 on all 40 Table A rows) and the stdout of `hgsp report --json`.
Running this module as a script rewrites them; do that only when an output
change is intended.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from hgsp.certify import verify_witness
from hgsp.cli import main
from hgsp.fixtures import DEPENDENT_EXAMPLES, TABLE_A, witness_rows
from hgsp.words import Word

GOLDEN = Path(__file__).parent / "golden"
PROBE_WORDS = ("A", "BA", "B^2A", "AB^-1A^2")


def certificate_lines() -> str:
    cases = [(row.pair(), row.witness_word()) for row in witness_rows()]
    cases += [(ex.pair(), Word.parse(ex.word)) for ex in DEPENDENT_EXAMPLES]
    cases += [
        (row.pair(), Word.parse(word)) for row in TABLE_A for word in PROBE_WORDS
    ]
    return "".join(
        json.dumps(verify_witness(pair, word).to_json()) + "\n"
        for pair, word in cases
    )


def report_json() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", "--json"]) == 0
    return out.getvalue()


OUTPUTS = {"certificates.jsonl": certificate_lines, "report.json": report_json}


def test_certificates_match_golden():
    expected = (GOLDEN / "certificates.jsonl").read_text(encoding="utf-8")
    assert len(expected.splitlines()) == 180
    assert certificate_lines() == expected


def test_report_json_matches_golden():
    assert report_json() == (GOLDEN / "report.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, produce in OUTPUTS.items():
        (GOLDEN / name).write_text(produce(), encoding="utf-8")
    sys.exit(0)
