"""The batch refit and the one-pass example re-rank are bit-identical.

A refit fits the vectorizer on every document's cached term counts in one
pass (``TfIdfVectorizer.fit_transform``); example selection scores each
pool member once. Both must reproduce, bit for bit, the per-document
``fit_one`` + ``transform`` refit and the two-full-search re-rank they
replaced, which are kept here as references.
"""

from __future__ import annotations

import struct
from collections import Counter

import pytest

from repro.bench.bird import build_knowledge_sets, build_workload
from repro.pipeline import GenEditPipeline
from repro.text import RetrievalIndex, TfIdfVectorizer, normalize
from repro.text.similarity import cosine_with_norms, l2_norm

SEEDS = (7, 8, 9)


def _bits(value):
    return struct.pack("d", value)


def _vector_bits(vector):
    return [(term, _bits(weight)) for term, weight in vector.items()]


def reference_refit(documents):
    """Per-document fit, then per-document transform: the pre-batch refit.

    Returns ``(vectorizer, vectors, norms, inverted, postings)``.
    """
    vectorizer = TfIdfVectorizer()
    for document in documents:
        vectorizer.fit_one(document.text)
    vectors, norms, inverted, postings = {}, {}, {}, {}
    for document in documents:
        vector = vectorizer.transform(document.text)
        vectors[document.doc_id] = vector
        norms[document.doc_id] = l2_norm(vector)
        for term in set(normalize(document.text)):
            inverted.setdefault(term, set()).add(document.doc_id)
        for term, weight in vector.items():
            postings.setdefault(term, []).append((document.doc_id, weight))
    return vectorizer, vectors, norms, inverted, postings


def _corpora():
    for seed in SEEDS:
        knowledge_sets = build_knowledge_sets(build_workload(seed), seed)
        for name, knowledge in sorted(knowledge_sets.items()):
            for kind in ("_example_index", "_instruction_index"):
                source = getattr(knowledge, kind)
                yield f"{seed}/{name}/{kind}", source.documents()


@pytest.fixture(scope="module")
def corpora():
    return list(_corpora())


def _fresh_index(documents):
    index = RetrievalIndex()
    for document in documents:
        index.add(document.doc_id, document.text)
    return index


class TestBatchRefit:
    def test_tables_match_per_document_refit(self, corpora):
        for label, documents in corpora:
            index = _fresh_index(documents)
            index.search("warm up")  # the lazy refit
            state = index._state
            _vectorizer, vectors, norms, inverted, postings = (
                reference_refit(documents)
            )
            assert list(state.vectors) == list(vectors), label
            for doc_id, (vector, norm) in state.vectors.items():
                assert _vector_bits(vector) == _vector_bits(
                    vectors[doc_id]
                ), (label, doc_id)
                assert _bits(norm) == _bits(norms[doc_id]), label
            assert state.inverted == inverted, label
            fitted_postings = state.postings()  # built on first use
            assert list(fitted_postings) == list(postings), label
            for term, entries in postings.items():
                doc_ids, weights = fitted_postings[term]
                assert [
                    (doc_id, _bits(weight))
                    for doc_id, weight in zip(doc_ids, weights)
                ] == [
                    (doc_id, _bits(weight)) for doc_id, weight in entries
                ], (label, term)
                # The postings hold the vectors' own floats, not copies.
                assert all(
                    weight is state.vectors[doc_id][0][term]
                    for doc_id, weight in zip(doc_ids, weights)
                ), (label, term)

    def test_search_scores_match_per_document_refit(self, corpora):
        queries = [document.text for _label, docs in corpora[:2]
                   for document in docs[:10]]
        queries += ["how many organisations are in canada", "qoqfp"]
        for label, documents in corpora:
            index = _fresh_index(documents)
            vectorizer, vectors, norms, _inverted, _postings = (
                reference_refit(documents)
            )
            for query in queries:
                query_vector = vectorizer.transform(query)
                query_norm = l2_norm(query_vector)
                hits = index.search(query, k=len(documents))
                expected = [
                    (doc_id, _bits(cosine_with_norms(
                        query_vector, vectors[doc_id],
                        query_norm, norms[doc_id],
                    )))
                    for doc_id in (hit.doc_id for hit in hits)
                ]
                assert [
                    (hit.doc_id, _bits(hit.score)) for hit in hits
                ] == expected, (label, query)
                keys = [(-hit.score, hit.doc_id) for hit in hits]
                assert keys == sorted(keys), (label, query)

    def test_every_fitted_term_keeps_a_positive_weight(self, corpora):
        # IDF >= 1 for every fitted term, so the query-side ``weight > 0``
        # filter can never drop a document term: the batch path has none.
        for label, documents in corpora:
            vectorizer = TfIdfVectorizer()
            counts = [
                Counter(vectorizer.terms_for(document.text))
                for document in documents
            ]
            vectors = vectorizer.fit_transform(counts)
            for frequency in set(vectorizer._document_frequency.values()):
                assert vectorizer._idf(frequency) >= 1.0, label
            for term_counts, vector in zip(counts, vectors):
                assert list(vector) == list(term_counts), label

    def test_fit_transform_accumulates_like_fit(self):
        texts = ["alpha beta", "beta gamma", "gamma delta alpha"]
        batch = TfIdfVectorizer()
        batch.fit(texts[:1])
        vectors = batch.fit_transform(
            Counter(batch.terms_for(text)) for text in texts[1:]
        )
        reference = TfIdfVectorizer().fit(texts)
        assert batch._document_count == reference._document_count
        assert batch._document_frequency == reference._document_frequency
        assert [_vector_bits(vector) for vector in vectors] == [
            _vector_bits(reference.transform(text)) for text in texts[1:]
        ]

    def test_empty_document_gets_an_empty_vector(self):
        vectorizer = TfIdfVectorizer()
        assert vectorizer.fit_transform([Counter(), Counter(["a"])])[0] == {}


def reference_select(knowledge, config, question, intent_ids):
    """The pre-change re-rank: a wide search, then a full pool search."""
    intent_candidates = [
        example.example_id
        for example in knowledge.examples_for_intents(intent_ids)
    ]
    widened = knowledge.search_examples(question, k=config.example_top_k * 2)
    pool = list(dict.fromkeys(
        intent_candidates + [hit.doc_id for hit in widened]
    ))
    return knowledge.search_examples(
        question, k=len(pool) or 1, candidates=pool
    )


class TestExampleSelection:
    def test_matches_two_full_searches(self, experiment_context):
        profiles = experiment_context.profiles
        knowledge_sets = experiment_context.knowledge_sets
        pipelines = {
            name: GenEditPipeline(profile.database, knowledge_sets[name])
            for name, profile in profiles.items()
        }
        questions = experiment_context.workload.questions
        assert questions
        for question in questions:
            pipeline = pipelines[question.database]
            context = pipeline.generate(question.question).context
            ranked = reference_select(
                pipeline.knowledge, context.config,
                context.reformulated, context.intent_ids,
            )
            assert [
                (doc_id, _bits(score))
                for doc_id, score in context.example_scores.items()
            ] == [
                (hit.doc_id, _bits(hit.score)) for hit in ranked
            ], question.question
            top_k = context.config.example_top_k
            assert [
                example.example_id for example in context.examples
            ] == [hit.doc_id for hit in ranked[:top_k]], question.question
