"""Print one digest of every retrieval search a seed's dev questions make.

For each seed, every dev question is asked once through
``GenEditPipeline.generate``. One ``<seed> <searches> <digest>`` line per
seed: the digest is a SHA-256 over every ``RetrievalIndex.search`` result
in call order (each hit's doc id and the ``float.hex()`` of its score) and
each question's generated SQL. A change that moves one score by one bit,
reorders a tie or changes the SQL moves the digest. ``make golden`` diffs
seeds 7-11 with ``tests/fixtures/golden/search_fingerprints.txt``.

Component ids come from one process-wide counter, so the same seed mined
after other seeds gets higher ids. Each id is digested relative to the
counter's value just before the seed is mined, which makes a seed's line
the same whatever ran before it in the process.

    PYTHONPATH=src python scripts/search_fingerprints.py 7 8 9 10 11
"""

from __future__ import annotations

import hashlib
import sys

from repro.bench.bird import build_knowledge_sets, build_workload
from repro.bench.schemas import build_all
from repro.knowledge import next_component_id
from repro.pipeline import GenEditPipeline
from repro.text.index import RetrievalIndex


def seed_fingerprint(seed):
    """``(searches, hex digest)`` of ``seed``'s dev questions."""
    workload = build_workload(seed)
    base = _id_number(next_component_id("base"))
    knowledge_sets = build_knowledge_sets(workload, seed)
    pipelines = {
        name: GenEditPipeline(profile.database, knowledge_sets[name])
        for name, profile in build_all(seed).items()
    }
    digest = hashlib.sha256()
    searches = 0
    real_search = RetrievalIndex.search

    def recorded_search(index, *args, **kwargs):
        nonlocal searches
        hits = real_search(index, *args, **kwargs)
        searches += 1
        digest.update(" ".join(
            f"{_relative_id(hit.doc_id, base)}:{hit.score.hex()}"
            for hit in hits
        ).encode())
        digest.update(b"\n")
        return hits

    RetrievalIndex.search = recorded_search
    try:
        for question in workload.questions:
            result = pipelines[question.database].generate(question.question)
            digest.update(f"sql {result.sql}\n".encode())
    finally:
        RetrievalIndex.search = real_search
    return searches, digest.hexdigest()


def _id_number(component_id):
    return int(component_id.rsplit("-", 1)[1])


def _relative_id(component_id, base):
    prefix = component_id.rsplit("-", 1)[0]
    return f"{prefix}-{_id_number(component_id) - base}"


def main(argv):
    for seed in [int(arg) for arg in argv] or [7]:
        searches, digest = seed_fingerprint(seed)
        print(f"{seed} {searches} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
