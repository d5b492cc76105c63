"""Byte-level pins on enumeration, analyze and search output.

The enumeration and analyze digests and texts were captured from the
implementation in which enumeration restated the qualification rule inline;
they hold any later rewrite of the pair layer to the same classes, order and
records.  Classes are taken up to scalar shift and swap, and the --mum
digests list each maximally unipotent class once, as (1^n, g).  The
depth-8 and depth-7 search digests were captured from the engine that cut
each suffix block out of a per-length level, and the depth-10 digest, whose
scans step up to five letters before a block, from the engine with
five-letter blocks joined from per-letter runs; they hold any later rewrite
of the search to the same outcomes.  The degree-4 (depth 12) and degree-8
(depth 6) search digests and the degree-8 certificate digest were captured
from the engine that stepped each letter through a sparse plan compiled
from the dense generator matrices.
"""

import hashlib
import json

import pytest

from hgsp.certify import verify_witness
from hgsp.cli import main
from hgsp.pairs import EQUIVALENCE, enumerate_qualified_pairs
from hgsp.search import FOUND, SearchConfig, search_witness


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


ENUMERATE_STDOUT = {
    (4, False): "ae3afcaf615c1b738db0e55b0dff4940b6dfa3e587be7765cea453a3353db17f",
    (4, True): "6ba8211b6f387da0372d422e5a6f0336ac6ab9e62fdccd6e6ed241d404d8d63e",
    (6, False): "db80c3b89e3b99e3d2fc1f16886ca930c708b8a2fab11bb76137eaf7ced882ce",
    (6, True): "6790bcc5ae7b303eb43f7d209e7c0290d4d279f83d077dfc93e72b539bc62841",
}


@pytest.mark.parametrize(
    "degree,mum",
    sorted(ENUMERATE_STDOUT),
    ids=[f"{degree}-{EQUIVALENCE}-{mum}" for degree, mum in sorted(ENUMERATE_STDOUT)],
)
def test_enumerate_stdout_digest(capsys, degree, mum):
    argv = ["enumerate", "--degree", str(degree)]
    assert main(argv + (["--mum"] if mum else [])) == 0
    out = capsys.readouterr().out
    assert sha256(out) == ENUMERATE_STDOUT[degree, mum]


def test_degree_eight_ids_and_lc_digest():
    pairs = enumerate_qualified_pairs(8)
    digest = "c81f93e99ea8f32d348256de91044831f265542a0eb99f3da2ef14e936f0db1d"
    assert sha256(repr([(p.pair_id, p.lc) for p in pairs])) == digest


ANALYZE_STDOUT = {
    ("1^6", "3^2,6"): """\
pair_id: 1^6|3^2,6
f: 1^6 = 1,-6,15,-20,15,-6,1
g: 3^2,6 = 1,1,2,1,2,1,1
alpha: 0,0,0,0,0,0
beta: 1/6,1/3,1/3,2/3,2/3,5/6
lc: -7 (|lc| = 7)
v: -7,13,-21,13,-7,0
gcd(v): 1
omega:
       0     -6     -7     -1      8      7
       6      0     -6     -7     -1      8
       7      6      0     -6     -7     -1
       1      7      6      0     -6     -7
      -8      1      7      6      0     -6
      -7     -8      1      7      6      0
sv-criterion: inapplicable (|lc| = 7)
""",
    ("1^2,2^2,3", "7"): """\
pair_id: 1^2,2^2,3|7
f: 1^2,2^2,3 = 1,1,-1,-2,-1,1,1
g: 7 = 1,1,1,1,1,1,1
alpha: 0,0,1/3,1/2,1/2,2/3
beta: 1/7,2/7,3/7,4/7,5/7,6/7
lc: -2 (|lc| = 2)
v: 0,-2,-3,-2,0,0
gcd(v): 1
omega:
       0      4     -6      5     -5      6
      -4      0      4     -6      5     -5
       6     -4      0      4     -6      5
      -5      6     -4      0      4     -6
       5     -5      6     -4      0      4
      -6      5     -5      6     -4      0
sv-criterion: arithmetic by small leading coefficient (|lc| = 2)
""",
    ("1^6", "2^6"): """\
pair_id: 1^6|2^6
f: 1^6 = 1,-6,15,-20,15,-6,1
g: 2^6 = 1,6,15,20,15,6,1
alpha: 0,0,0,0,0,0
beta: 1/2,1/2,1/2,1/2,1/2,1/2
lc: -12 (|lc| = 12)
v: -12,0,-40,0,-12,0
gcd(v): 4
omega:
       0     -3      0      7      0    -63
       3      0     -3      0      7      0
       0      3      0     -3      0      7
      -7      0      3      0     -3      0
       0     -7      0      3      0     -3
      63      0     -7      0      3      0
sv-criterion: inapplicable (|lc| = 12)
gcd obstruction: no witness word exists (gcd 4)
""",
}


@pytest.mark.parametrize("f,g", sorted(ANALYZE_STDOUT))
def test_analyze_stdout_bytes(capsys, f, g):
    assert main(["analyze", "--f", f, "--g", g]) == 0
    captured = capsys.readouterr()
    assert captured.out == ANALYZE_STDOUT[f, g]
    assert captured.err == ""


SEARCH_OUTCOMES = {
    SearchConfig(max_depth=8):
        "42ddde6d3579b30be936687497d99450b1a0c927c5afad92224de810d36422e2",
    SearchConfig(max_depth=7, all_at_min_depth=True):
        "0660222a209cdcb8ffa87d31719a771a24fb4127d3cf3764b8346440dcdbef4a",
    SearchConfig(max_depth=10):
        "a9ecc8ee6c2d3a853e82bbb109816b37be4fd7982316f41b4d02bbf0e198ba06",
}


@pytest.mark.parametrize("cfg", list(SEARCH_OUTCOMES), ids=["depth-8", "depth-7-all", "depth-10"])
def test_search_outcomes_digest(cfg):
    # every degree-6 class left to witness search (|lc| >= 3), in
    # enumeration order: status, word, images, gcd and per-depth counts
    pairs = [p for p in enumerate_qualified_pairs(6) if abs(p.lc) >= 3]
    assert len(pairs) == 247
    outcomes = [search_witness(p, cfg).to_json() for p in pairs]
    assert sha256(json.dumps(outcomes)) == SEARCH_OUTCOMES[cfg]


def test_degree_four_search_outcomes_digest():
    # the 27 degree-4 classes with |lc| >= 3, searched to depth 12
    pairs = [p for p in enumerate_qualified_pairs(4) if abs(p.lc) >= 3]
    assert len(pairs) == 27
    outcomes = [search_witness(p, SearchConfig(max_depth=12)).to_json() for p in pairs]
    digest = "e8106c8903eeb98e82c801ec207f4de2d0c9a6137abcf67952dad074bc092906"
    assert sha256(json.dumps(outcomes)) == digest


def test_degree_eight_search_outcomes_and_certificates_digest():
    # the 1747 degree-8 classes with |lc| >= 3 at depth 6, then the
    # certificate of each of the 746 witnesses found
    pairs = [p for p in enumerate_qualified_pairs(8) if abs(p.lc) >= 3]
    assert len(pairs) == 1747
    outcomes = [search_witness(p, SearchConfig(max_depth=6)) for p in pairs]
    digest = "12670f612cde9dd6f56414e191c5472e843a80528a40dc1c7e49defab48dc6c8"
    assert sha256(json.dumps([o.to_json() for o in outcomes])) == digest
    certificates = [
        verify_witness(p, o.word).to_json()
        for p, o in zip(pairs, outcomes) if o.status == FOUND
    ]
    assert len(certificates) == 746
    digest = "d7f137ea8447400a6ccce531b7f87a756b1b02d177a7ac19f189de2031f0af76"
    assert sha256(json.dumps(certificates)) == digest
