"""JSONL cache of finished witness searches, and what its records mean.

Each line stores one completed search for a pair: the pair id, the depth
that was exhausted, and the resulting classification, as ``outcome_record``
builds it from a search outcome (the one map from search status to kind).
An obstruction settles every depth, a witness every depth at least the
length of its parsed witness, and an unsuccessful search any depth up to
the one recorded.  ``nodes`` and ``witness_length`` are written for
compatibility and read by nothing.  ``ResultCache.serve`` applies the
served-record rule (``_holds``) and discards a settling record that fails.

The file is append-only.  ``store`` appends the record and ``discard``
appends a tombstone ``{"pair_id": P, "discard": true}``, each as one write
to the file opened with O_APPEND, so processes sharing a file lose no
lines.  Loading replays the lines in order: each record goes through the
keep-better merge and each tombstone drops the pair's record so far.  A
damaged line, such as one that is not UTF-8, whose fields have the wrong
type or an unknown kind, or whose witness is not a reduced word, is
skipped, so a torn last line costs only its own record; an append after
it starts with a newline.  A device or FIFO path is refused unread.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .certify import verify_witness
from .hgroup import build_generators, transvection_vector
from .pairs import CLASS_KINDS, PairClassification, QualifiedPair, gcd_obstruction
from .search import FOUND, OBSTRUCTED, SearchOutcome
from .words import Word

ENV_VAR = "HGSP_CACHE"
DEFAULT_FILENAME = "hgsp-cache.jsonl"


def default_cache_path() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_FILENAME


@dataclass(frozen=True)
class CacheRecord:
    pair_id: str
    degree: int
    searched_depth: int
    kind: str
    witness: Optional[str]
    witness_length: Optional[int]
    gcd: Optional[int]
    nodes: Optional[int]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CacheRecord":
        """The record of a cache line; ValueError when a field has the wrong
        type (a bool is not an int), the kind is not one of CLASS_KINDS or a
        witness record's witness is not a reduced word."""
        record = cls(**{name: data.get(name) for name in _FIELD_TYPES})
        for name, types in _FIELD_TYPES.items():
            if type(getattr(record, name)) not in types:
                raise ValueError(f"cache field {name} has the wrong type")
        if record.kind not in CLASS_KINDS:
            raise ValueError(f"unknown cache record kind {record.kind!r}")
        if record.kind == "arithmetic_witness":
            Word.parse(record.witness or "")  # its errors are ValueErrors
        return record

    @property
    def rank(self) -> tuple[bool, int]:
        """A witness or obstruction beats depth; otherwise deeper wins."""
        return self.kind in ("arithmetic_witness", "obstructed"), self.searched_depth

    def settles(self, max_depth: int) -> bool:
        """Whether this record answers a search to the given depth."""
        if self.kind == "obstructed":
            return True
        if self.kind == "arithmetic_witness":
            return len(Word.parse(self.witness)) <= max_depth
        return self.searched_depth >= max_depth


# The types each field may take, from the annotations (Optional[int]: int, None)
_FIELD_TYPES = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(CacheRecord).items()
}


def _holds(pair: QualifiedPair, record: CacheRecord) -> bool:
    """Whether a settling record may be served: it must be for the pair's
    degree; an unknown record is trusted, a small-lc one needs |lc| <= 2,
    an obstruction's gcd must equal gcd(v) and a witness must pass its full
    certificate again."""
    if record.degree != pair.degree:
        return False
    if record.kind == "unknown":
        return True
    if record.kind == "arithmetic_small_lc":
        return abs(pair.lc) <= 2
    if record.kind == "obstructed":
        return gcd_obstruction(transvection_vector(build_generators(pair))) == record.gcd
    return verify_witness(pair, Word.parse(record.witness)).verdict


class ResultCache:
    """All records live in memory; the file only grows."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._records: dict[str, CacheRecord] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        if not self.path.is_file():  # a device or FIFO may never end or block
            raise OSError(errno.EINVAL, "not a regular file", str(self.path))
        with open(self.path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)  # bytes that do not decode raise ValueError
                    if data.get("discard"):
                        self._records.pop(data["pair_id"], None)
                    else:
                        self._keep_better(CacheRecord.from_json(data))
                except (ValueError, KeyError, TypeError, AttributeError):
                    # a damaged line costs a recomputation, nothing more
                    continue

    def _keep_better(self, record: CacheRecord) -> None:
        old = self._records.get(record.pair_id)
        if old is None or record.rank >= old.rank:
            self._records[record.pair_id] = record

    def lookup(self, pair_id: str, max_depth: int) -> Optional[CacheRecord]:
        record = self._records.get(pair_id)
        if record is not None and record.settles(max_depth):
            return record
        return None

    def serve(self, pair: QualifiedPair, max_depth: int) -> Optional[CacheRecord]:
        """The record that settles the pair's search and passes the
        served-record rule; one that fails the rule is discarded."""
        record = self.lookup(pair.pair_id, max_depth)
        if record is None or _holds(pair, record):
            return record
        self.discard(pair.pair_id)
        return None

    def store(self, record: CacheRecord) -> None:
        self._keep_better(record)
        self._append(record.to_json())

    def discard(self, pair_id: str) -> None:
        """Drop the record for a pair, on disk too."""
        self._records.pop(pair_id, None)
        self._append({"pair_id": pair_id, "discard": True})

    def _append(self, data: dict) -> None:
        line = json.dumps(data).encode() + b"\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line  # end a torn last line first
            os.write(fd, line)
        except OSError as exc:
            exc.filename = str(self.path)  # a failed read or write names no file
            raise
        finally:
            os.close(fd)


def record_for(pair, classification, nodes: Optional[int] = None) -> CacheRecord:
    witness = classification.witness
    return CacheRecord(
        pair_id=pair.pair_id,
        degree=pair.degree,
        searched_depth=classification.searched_depth or 0,
        kind=classification.kind,
        witness=str(witness) if witness else None,
        witness_length=classification.witness_length,
        gcd=classification.gcd,
        nodes=nodes,
    )


def outcome_record(pair: QualifiedPair, outcome: SearchOutcome) -> CacheRecord:
    """The record of a finished search; a found word's length is its searched depth."""
    word = outcome.word
    cls = PairClassification(
        kind={FOUND: "arithmetic_witness", OBSTRUCTED: "obstructed"}.get(outcome.status, "unknown"),
        gcd=outcome.gcd,
        witness=str(word) if word else None,
        witness_length=len(word) if word else None,
        searched_depth=len(word) if word else outcome.max_depth,
    )
    return record_for(pair, cls, nodes=outcome.nodes_visited)
