"""Print the content fingerprint of every mined knowledge set of some seeds.

One ``<seed> <database> <fingerprint>`` line per knowledge set, databases
sorted; the fingerprint is the one a ledger run record carries
(:func:`repro.obs.ledger.knowledge_fingerprint`). ``make golden`` diffs
seeds 7-11 with ``tests/fixtures/golden/knowledge_fingerprints.txt``, so
a change that moves what mining produces shows there.

    PYTHONPATH=src python scripts/knowledge_fingerprints.py 7 8 9 10 11
"""

from __future__ import annotations

import sys

from repro.bench.bird import build_knowledge_sets, build_workload
from repro.obs.ledger import knowledge_fingerprint


def main(argv):
    for seed in [int(arg) for arg in argv] or [7]:
        knowledge_sets = build_knowledge_sets(build_workload(seed), seed)
        for name in sorted(knowledge_sets):
            fingerprint = knowledge_fingerprint(knowledge_sets[name])
            print(f"{seed} {name} {fingerprint}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
