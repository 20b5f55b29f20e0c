"""Measure the process-wide memos of DESIGN.md §6d ("Process-wide memos").

    PYTHONPATH=src python scripts/memo_footprint.py keys 7 8 9 10 11 12
    PYTHONPATH=src python scripts/memo_footprint.py bytes [SEEDS]

Each seed's work is what one seed of the ``ask_cold`` benchmark workload
does: build the seed's databases, dev workload and six knowledge sets,
generate every dev question once and score it against its gold SQL.

``keys SEED...`` clears every memo before each seed and prints, per seed,
each memo's misses: its distinct keys for one deployment while they stay
under its cap.

``bytes`` runs seeds 7 .. 7+SEEDS-1 (default 30, the ``ask_cold`` seeds of
a full benchmark run) under ``tracemalloc``, then clears the memos one
after another in table order and prints each one's cap, entries and the
megabytes its clearing freed.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.bench.bird import build_knowledge_sets, build_workload
from repro.bench.metrics import execution_match
from repro.bench.schemas import build_all
from repro.engine.functions import _to_char
from repro.llm.simulated import _token_set
from repro.pipeline import GenEditPipeline
from repro.sql.parser import parse_cached, parses
from repro.text.normalize import _normalized, stem
from repro.text.vectorize import _terms

#: The memos in the order of DESIGN.md's bytes table.
MEMOS = (
    ("text.vectorize._terms", _terms),
    ("text.normalize._normalized", _normalized),
    ("text.normalize.stem", stem),
    ("llm.simulated._token_set", _token_set),
    ("sql.parser.parse_cached", parse_cached),
    ("sql.parser.parses", parses),
    ("engine.functions._to_char", _to_char),
    ("bench.schemas.build_all", build_all),
)


def ask_seed(seed):
    """One ``ask_cold`` seed: every dev question generated and scored."""
    profiles = build_all(seed)
    workload = build_workload(seed)
    knowledge_sets = build_knowledge_sets(workload, seed)
    pipelines = {
        name: GenEditPipeline(profile.database, knowledge_sets[name])
        for name, profile in profiles.items()
    }
    for question in workload.questions:
        result = pipelines[question.database].generate(question.question)
        execution_match(profiles[question.database].database, result.sql,
                        question.gold_sql)


def distinct_keys(seeds):
    print("seed " + " ".join(name for name, _memo in MEMOS))
    for seed in seeds:
        for _name, memo in MEMOS:
            memo.cache_clear()
        ask_seed(seed)
        print(f"{seed} " + " ".join(
            str(memo.cache_info().misses) for _name, memo in MEMOS
        ))


def freed_bytes(seeds):
    tracemalloc.start()
    for seed in range(7, 7 + seeds):
        ask_seed(seed)
    gc.collect()
    print("memo cap entries freed_mb")
    for name, memo in MEMOS:
        info = memo.cache_info()
        before = tracemalloc.get_traced_memory()[0]
        memo.cache_clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
        print(f"{name} {info.maxsize} {info.currsize} "
              f"{freed / 1024 / 1024:.1f}")


def main(argv):
    if argv[:1] == ["keys"]:
        distinct_keys([int(arg) for arg in argv[1:]] or [7])
    elif argv[:1] == ["bytes"]:
        freed_bytes(int(argv[1]) if len(argv) > 1 else 30)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
