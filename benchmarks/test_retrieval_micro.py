"""Retrieval refit micro-benchmark: batch refit against per-document refit.

Every example corpus of seeds 7–9 (six knowledge sets a seed) is refit
by two indexes over the same cached per-document normalisation: "before"
through a frozen copy of the per-document refit (one ``fit_one`` call per
document's terms, then one ``transform`` call per document's counts, with
``setdefault`` tables), "after" through :class:`RetrievalIndex`'s batch
refit (``TfIdfVectorizer.fit_transform``). The per-document refit builds
its postings table eagerly; the batch side builds its lazily, so its timer
forces that build too and both sides do the same work. Vectors, norms,
inverted index and postings must be bit-identical, and the batch refit must
be at least ``REFIT_GATE`` times faster, best of five. Part of
``make perf-smoke``.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

from repro.bench.bird import build_knowledge_sets, build_workload
from repro.bench.harness import format_table
from repro.text.index import FittedState, RetrievalIndex
from repro.text.normalize import normalize
from repro.text.similarity import l2_norm
from repro.text.vectorize import TfIdfVectorizer
from timing import best_of_interleaved

#: Minimum before/after speed-up of the batch refit.
REFIT_GATE = 1.2

SEEDS = (7, 8, 9)


class _PerDocumentVectorizer:
    """The per-document fit and transform the batch refit replaced, frozen.

    One ``fit_one`` call per document over its cached terms, then one
    ``transform`` call per document over its cached term counts.
    """

    def __init__(self):
        self._document_frequency = Counter()
        self._document_count = 0
        self._idf_by_frequency = {}

    def fit_one(self, terms):
        self._document_count += 1
        self._idf_by_frequency = {}
        for term in set(terms):
            self._document_frequency[term] += 1
        return self

    def transform(self, counts):
        if not counts:
            return {}
        document_frequency = self._document_frequency
        idf_by_frequency = self._idf_by_frequency
        log = math.log
        numerator = 1 + self._document_count
        vector = {}
        for term, count in counts.items():
            frequency = document_frequency.get(term, 0)
            idf = idf_by_frequency.get(frequency)
            if idf is None:
                idf = log(numerator / (1 + frequency)) + 1.0
                idf_by_frequency[frequency] = idf
            weight = idf if count == 1 else (1.0 + log(count)) * idf
            if weight > 0:
                vector[term] = weight
        norm = math.sqrt(sum([value * value for value in vector.values()]))
        if norm == 0:
            return {}
        for term in vector:
            vector[term] /= norm
        return vector


class _PerDocumentIndex(RetrievalIndex):
    """An index whose refit is the per-document one, frozen.

    Like the batch refit it reuses each document's cached normalisation
    (its token list and term tuple, kept here beside the document), and
    the timers publish each new state over the old one, so both sides
    allocate and free the same vectors and postings.
    """

    def __init__(self, documents):
        super().__init__()
        self._cached = {}
        for document in documents:
            self.add(document.doc_id, document.text)
            terms = TfIdfVectorizer().terms_for(document.text)
            self._cached[document.doc_id] = (
                normalize(document.text), terms, Counter(terms)
            )

    def _refit(self):
        vectorizer = _PerDocumentVectorizer()
        for doc_id in self._documents:
            vectorizer.fit_one(self._cached[doc_id][1])
        vectors = {}
        inverted = {}
        postings = {}
        for doc_id in self._documents:
            tokens, _terms, counts = self._cached[doc_id]
            vector = vectorizer.transform(counts)
            vectors[doc_id] = (vector, l2_norm(vector))
            for term in set(tokens):
                inverted.setdefault(term, set()).add(doc_id)
            for term, weight in vector.items():
                postings.setdefault(term, []).append((doc_id, weight))
        state = FittedState(vectorizer, vectors, inverted)
        state._postings = postings
        return state


def _bits(value):
    return struct.pack("d", value)


def _corpora():
    """``(label, batch index, per-document index)`` per example corpus."""
    corpora = []
    for seed in SEEDS:
        knowledge_sets = build_knowledge_sets(build_workload(seed), seed)
        for name, knowledge in sorted(knowledge_sets.items()):
            documents = knowledge._example_index.documents()
            batch = RetrievalIndex()
            for document in documents:
                batch.add(document.doc_id, document.text)
            batch._fitted()  # caches each document's normalisation
            reference = _PerDocumentIndex(documents)
            reference._fitted()
            corpora.append((f"{seed}/{name}", batch, reference))
    return corpora


def _check_identical(label, batch, reference):
    batch, reference = batch._state, reference._state
    assert list(batch.vectors) == list(reference.vectors), label
    for doc_id, (vector, norm) in batch.vectors.items():
        expected_vector, expected_norm = reference.vectors[doc_id]
        assert [(t, _bits(w)) for t, w in vector.items()] == [
            (t, _bits(w)) for t, w in expected_vector.items()
        ], (label, doc_id)
        assert _bits(norm) == _bits(expected_norm), (label, doc_id)
    assert batch.inverted == reference.inverted, label
    postings = batch.postings()  # the batch side builds it on first use
    assert list(postings) == list(reference.postings()), label
    assert {
        term: [(doc_id, _bits(weight)) for doc_id, weight in entries]
        for term, entries in postings.items()
    } == {
        term: [(doc_id, _bits(weight)) for doc_id, weight in entries]
        for term, entries in reference.postings().items()
    }, label


def test_batch_refit_beats_per_document_refit():
    corpora = _corpora()
    for label, batch, reference in corpora:
        _check_identical(label, batch, reference)

    def before():
        for _label, _batch, reference in corpora:
            reference._state = reference._refit()

    def after():
        for _label, batch, _reference in corpora:
            batch._state = batch._refit()
            batch._state.postings()

    before_s, after_s = best_of_interleaved(before, after)
    ratio = before_s / after_s
    documents = sum(len(batch) for _label, batch, _reference in corpora)
    print()
    print(format_table(
        f"Example-index refit, {len(corpora)} corpora, {documents} "
        "documents (best-of-5, ms per pass)",
        ["refit", "before_ms", "after_ms", "ratio"],
        [("batch", before_s * 1e3, after_s * 1e3, ratio)],
    ))
    for label, batch, reference in corpora:
        _check_identical(label, batch, reference)
    assert ratio >= REFIT_GATE, (
        f"batch refit only {ratio:.2f}x over the per-document refit "
        f"(gate {REFIT_GATE}x)"
    )
