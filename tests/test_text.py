"""Text substrate tests: normalisation, TF-IDF, similarity, index."""

import gc
import struct
import tracemalloc

import pytest

from repro.text import (
    RetrievalIndex,
    TfIdfVectorizer,
    char_ngrams,
    cosine,
    cosine_with_norms,
    jaccard,
    l2_norm,
    ngrams,
    normalize,
    overlap_coefficient,
    stem,
    tokenize_text,
)
from repro.text.vectorize import _terms


class TestNormalize:
    def test_tokenize_lowercases(self):
        assert tokenize_text("Hello World") == ["hello", "world"]

    def test_apostrophes_kept(self):
        assert tokenize_text("it's") == ["it's"]

    def test_stopwords_removed(self):
        assert "the" not in normalize("the revenue of the org")

    def test_mutating_the_result_leaves_the_next_call_intact(self):
        first = normalize("regional sales leagues")
        first.append("x")
        first[0] = "y"
        assert normalize("regional sales leagues") == [
            "regional", "sale", "league",
        ]

    def test_our_is_not_a_stopword(self):
        # 'our' carries enterprise meaning (ownership) — must survive.
        assert "our" in normalize("our organisations")

    @pytest.mark.parametrize("word,expected", [
        ("organizations", "organiz"),
        ("leagues", "league"),
        ("courses", "course"),
        ("statuses", "status"),
        ("cities", "city"),
        ("running", "runn"),
        ("cat", "cat"),
    ])
    def test_stem(self, word, expected):
        assert stem(word) == expected

    def test_stem_consistency_plural_singular(self):
        # plural and singular of common nouns unify
        for word in ["league", "zone", "region", "store", "plant"]:
            assert stem(word + "s") == stem(word)

    def test_ngrams(self):
        assert ngrams(["a", "b", "c"], 2) == ["a_b", "b_c"]
        assert ngrams(["a"], 2) == []

    def test_char_ngrams(self):
        assert char_ngrams("abcd", 3) == ["abc", "bcd"]
        assert char_ngrams("ab", 3) == ["ab"]
        assert char_ngrams("", 3) == []


class TestVectorizer:
    def test_transform_normalised(self):
        vectorizer = TfIdfVectorizer().fit(["alpha beta", "beta gamma"])
        vector = vectorizer.transform("alpha beta")
        norm = sum(value * value for value in vector.values())
        assert norm == pytest.approx(1.0)

    def test_rare_term_weighs_more(self):
        corpus = ["common word here"] * 5 + ["rare qoqfp metric"]
        vectorizer = TfIdfVectorizer().fit(corpus)
        vector = vectorizer.transform("common qoqfp")
        assert vector["qoqfp"] > vector["common"]

    def test_empty_text(self):
        vectorizer = TfIdfVectorizer().fit(["x"])
        assert vectorizer.transform("") == {}

    def test_unfitted_flag(self):
        assert not TfIdfVectorizer().is_fitted
        assert TfIdfVectorizer().fit(["a"]).is_fitted


class TestInternedTerms:
    #: Bytes the term memo may hold per entry for the seed-7 knowledge
    #: texts: about 1.8 KB with interned terms, 8.7 KB with a fresh
    #: string per occurrence.
    MAX_BYTES_PER_ENTRY = 3000

    #: The top 10 of the seed-7 sports_holdings example index for one dev
    #: question, as (position in ``examples()``, ``float.hex`` score),
    #: pinned before terms were interned.
    PINNED_HITS = [
        (2, "0x1.0c6028f1c1448p-3"),
        (7, "0x1.0c6028f1c1448p-3"),
        (45, "0x1.0c6028f1c1448p-3"),
        (43, "0x1.b0d529cf5d6c6p-4"),
        (5, "0x1.aec351599cac3p-4"),
        (17, "0x1.8bf64a0f89fd3p-4"),
        (0, "0x1.88ecb0cc89295p-4"),
        (19, "0x1.5aae9c5015997p-4"),
        (24, "0x1.5aae9c5015997p-4"),
        (29, "0x1.5aae9c5015997p-4"),
    ]

    def test_equal_terms_of_two_texts_are_one_object(self):
        first = _terms("regional sales leagues")
        second = _terms("total sales by region")
        shared = set(first) & set(second)
        assert {"sale", "sal", "ale", "les"} <= shared
        for term in shared:
            assert first[first.index(term)] is second[second.index(term)]

    def test_memo_bytes_per_entry_bounded(self, experiment_context):
        texts = sorted({
            component.retrieval_text
            for knowledge in experiment_context.knowledge_sets.values()
            for component in knowledge.examples() + knowledge.instructions()
        })
        for text in texts:
            normalize(text)  # warm the token memos: measure only _terms
        _terms.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for text in texts:
                _terms(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = _terms.cache_info().currsize
        assert entries == len(texts) > 300
        assert held / entries <= self.MAX_BYTES_PER_ENTRY

    def test_search_matches_pinned_scores(self, experiment_context):
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        index = RetrievalIndex()
        for position, example in enumerate(knowledge.examples()):
            index.add(position, example.retrieval_text)
        hits = index.search("How many sports organisations are there?", k=10)
        assert [
            (hit.doc_id, hit.score.hex()) for hit in hits
        ] == self.PINNED_HITS


class TestSimilarity:
    def test_cosine_identical(self):
        v = {"a": 0.6, "b": 0.8}
        assert cosine(v, v) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_cosine_empty(self):
        assert cosine({}, {"a": 1.0}) == 0.0

    def test_jaccard(self):
        assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard([], []) == 0.0

    def test_overlap_coefficient(self):
        assert overlap_coefficient(["a"], ["a", "b", "c"]) == 1.0
        assert overlap_coefficient([], ["a"]) == 0.0

    def test_l2_norm(self):
        assert l2_norm({"a": 3.0, "b": 4.0}) == pytest.approx(5.0)
        assert l2_norm({}) == 0.0

    def test_cosine_with_norms_matches_cosine(self):
        left = {"a": 1.0, "b": 2.0}
        right = {"b": 0.5, "c": 4.0}
        assert cosine_with_norms(
            left, right, l2_norm(left), l2_norm(right)
        ) == pytest.approx(cosine(left, right))

    def test_cosine_with_norms_zero_norm(self):
        assert cosine_with_norms({"a": 1.0}, {"a": 1.0}, 0.0, 1.0) == 0.0


class TestRetrievalIndex:
    @pytest.fixture()
    def index(self):
        index = RetrievalIndex()
        index.add("d1", "total revenue per organisation")
        index.add("d2", "television viewers per month")
        index.add("d3", "sponsorship deal value")
        return index

    def test_search_ranks_relevant_first(self, index):
        hits = index.search("revenue of organisations", k=3)
        assert hits[0].doc_id == "d1"

    def test_candidates_restrict_pool(self, index):
        hits = index.search("revenue", k=3, candidates=["d2", "d3"])
        assert {hit.doc_id for hit in hits} <= {"d2", "d3"}

    def test_extra_text_expands_query(self, index):
        plain = index.search("numbers", k=1)
        expanded = index.search("numbers", k=1, extra_text="television viewers")
        assert expanded[0].doc_id == "d2"
        assert expanded[0].score >= plain[0].score if plain else True

    def test_remove(self, index):
        index.remove("d1")
        assert "d1" not in index
        assert all(hit.doc_id != "d1" for hit in index.search("revenue"))

    def test_replace_document(self, index):
        index.add("d1", "completely different text about sponsors")
        hits = index.search("sponsors", k=2)
        assert "d1" in {hit.doc_id for hit in hits}

    def test_score_single_document(self, index):
        assert index.score("revenue", "d1") > index.score("revenue", "d2")
        assert index.score("revenue", "missing") == 0.0

    def test_len_and_get(self, index):
        assert len(index) == 3
        assert index.get("d2").text.startswith("television")

    def test_metadata_preserved(self):
        index = RetrievalIndex()
        index.add("x", "text", {"kind": "example"})
        assert index.get("x").metadata["kind"] == "example"

    def test_search_falls_back_to_scan_when_no_term_overlap(self, index):
        hits = index.search("zzz qqq", k=1)
        assert len(hits) <= 1  # no crash; may return weak or no hit

    def test_norms_precomputed_on_refresh(self, index):
        index.search("revenue", k=1)  # forces a refresh
        vectors = index._state.vectors
        assert list(vectors) == [doc.doc_id for doc in index.documents()]
        for vector, norm in vectors.values():
            assert norm == pytest.approx(l2_norm(vector))
            assert norm > 0

    def test_add_invalidates_norms_and_query_cache(self, index):
        index.search("sponsors", k=3)  # warm query cache + norms
        index.add("d4", "sponsors sponsors sponsors everywhere")
        assert index._state is None
        hits = index.search("sponsors", k=1)
        assert hits[0].doc_id == "d4"
        assert index._state.vectors["d4"][1] > 0

    def test_remove_invalidates_norms_and_query_cache(self, index):
        assert index.search("revenue", k=1)[0].doc_id == "d1"
        index.remove("d1")
        hits = index.search("revenue", k=3)
        assert all(hit.doc_id != "d1" for hit in hits)

    def test_repeated_query_uses_cached_embedding(self, index):
        first = index.search("revenue of organisations", k=3)
        second = index.search("revenue of organisations", k=3)
        assert [(h.doc_id, h.score) for h in first] == [
            (h.doc_id, h.score) for h in second
        ]
        assert "revenue of organisations" in index._state._queries

    def test_fallback_scan_capped_on_large_collection(self, caplog):
        from repro.text.index import FALLBACK_SCAN_CAP

        big = RetrievalIndex()
        for position in range(FALLBACK_SCAN_CAP + 10):
            big.add(f"doc-{position}", f"alpha beta entry {position}")
        big.search("alpha", k=1)  # refresh
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.text.index"):
            pool = big._candidate_pool(big._state, "zzzz qqqq", None)
        assert len(pool) == FALLBACK_SCAN_CAP
        assert "capping fallback scan" in caplog.text

    def test_fallback_scan_uncapped_on_small_collection(self, index):
        pool = index._candidate_pool(index._fitted(), "zzzz qqqq", None)
        assert len(pool) == len(index)

    def test_remove_absent_id_keeps_index_fitted(self, index):
        index.search("revenue", k=1)  # fit
        state = index._state
        index.remove("zzz")
        assert index._state is state
        index.remove("d1")
        assert index._state is None

    def test_repeated_candidates_give_one_hit_each(self, index):
        hits = index.search("revenue", k=10, candidates=["d1", "d1", "d3"])
        assert [hit.doc_id for hit in hits] == ["d1", "d3"]
        once = index.search("revenue", k=10, candidates=["d1", "d3"])
        assert [(hit.doc_id, hit.score) for hit in hits] == [
            (hit.doc_id, hit.score) for hit in once
        ]

    def test_postings_built_on_first_large_pool_search(self):
        index = RetrievalIndex()
        for position in range(40):
            index.add(f"doc-{position}", f"revenue report {position}")
        index.search("revenue", k=3, candidates=["doc-1", "doc-2"])
        assert index._state._postings is None
        index.search("revenue", k=3)
        assert index._state._postings is not None


def _bits(value):
    return struct.pack("d", value)


def _ranking(index, queries):
    return [
        [(hit.doc_id, hit.score) for hit in index.search(query, k=10)]
        for query in queries
    ]


class TestRetrievalIndexClone:
    QUERIES = (
        "revenue of organisations",
        "monthly television viewers",
        "sponsorship value",
        "zzz qqq",
    )

    @pytest.fixture()
    def index(self):
        index = RetrievalIndex()
        index.add("d1", "total revenue per organisation")
        index.add("d2", "television viewers per month")
        index.add("d3", "sponsorship deal value")
        index.add("d4", "revenue from sponsorship deals per month")
        return index

    @staticmethod
    def _fresh(*documents):
        index = RetrievalIndex()
        for doc_id, text in documents:
            index.add(doc_id, text)
        return index

    @staticmethod
    def _fitted_state(index):
        """The published tables, with every float as its exact bits."""
        state = index._state
        return (
            {
                doc_id: ([(t, _bits(w)) for t, w in vector.items()],
                         _bits(norm))
                for doc_id, (vector, norm) in state.vectors.items()
            },
            state.inverted,
            {
                term: [(doc_id, _bits(w)) for doc_id, w in zip(ids, weights)]
                for term, (ids, weights) in state.postings().items()
            },
        )

    def test_clone_of_fitted_index_shares_tables_and_needs_no_refit(
        self, index
    ):
        expected = _ranking(index, self.QUERIES)
        state = index._state
        clone = index.clone()
        assert clone._state is state
        assert all(
            copied is original for copied, original
            in zip(clone.documents(), index.documents())
        )
        assert _ranking(clone, self.QUERIES) == expected
        assert clone._state is state

    def test_clone_matches_a_freshly_built_index(self, index):
        index.search("revenue", k=1)
        clone = index.clone()
        clone.add("d5", "viewers of sponsored broadcasts")
        clone.remove("d2")
        fresh = self._fresh(
            ("d1", "total revenue per organisation"),
            ("d3", "sponsorship deal value"),
            ("d4", "revenue from sponsorship deals per month"),
            ("d5", "viewers of sponsored broadcasts"),
        )
        assert _ranking(clone, self.QUERIES) == _ranking(fresh, self.QUERIES)

    def test_edits_to_clone_leave_parent_unchanged(self, index):
        expected = _ranking(index, self.QUERIES)
        state = self._fitted_state(index)
        clone = index.clone()
        clone.add("d5", "revenue revenue revenue")
        clone.add("d1", "a different text about viewers")
        clone.remove("d3")
        _ranking(clone, self.QUERIES)  # refit the clone
        assert self._fitted_state(index) == state
        assert _ranking(index, self.QUERIES) == expected

    def test_edits_to_parent_leave_clone_unchanged(self, index):
        expected = _ranking(index, self.QUERIES)
        clone = index.clone()
        state = self._fitted_state(clone)
        index.add("d5", "revenue revenue revenue")
        index.remove("d2")
        _ranking(index, self.QUERIES)  # refit the parent
        assert self._fitted_state(clone) == state
        assert _ranking(clone, self.QUERIES) == expected

    def test_clone_of_dirty_index_fits_independently(self, index):
        clone = index.clone()
        assert clone._state is None
        index.add("d5", "revenue revenue revenue")
        expected_clone = _ranking(self._fresh(
            *((doc.doc_id, doc.text) for doc in clone.documents())
        ), self.QUERIES)
        assert _ranking(clone, self.QUERIES) == expected_clone
        expected_parent = _ranking(self._fresh(
            *((doc.doc_id, doc.text) for doc in index.documents())
        ), self.QUERIES)
        assert _ranking(index, self.QUERIES) == expected_parent
        assert "d5" not in clone

    def test_clone_of_clone(self, index):
        expected = _ranking(index, self.QUERIES)
        child = index.clone()
        child.add("d5", "viewers per organisation")
        grandchild = child.clone()
        grandchild.remove("d1")
        grandchild_ranking = _ranking(grandchild, self.QUERIES)
        child_ranking = _ranking(child, self.QUERIES)
        assert grandchild_ranking == _ranking(self._fresh(
            *((doc.doc_id, doc.text) for doc in grandchild.documents())
        ), self.QUERIES)
        assert child_ranking == _ranking(self._fresh(
            *((doc.doc_id, doc.text) for doc in child.documents())
        ), self.QUERIES)
        assert "d1" in child
        assert _ranking(index, self.QUERIES) == expected

    def test_concurrent_first_searches_on_parent_and_clone(self):
        import sys
        import threading

        documents = [
            (f"d{position}", f"metric {position} revenue viewers month "
                             f"organisation {position % 7} deal")
            for position in range(200)
        ]
        queries = [f"revenue metric {position}" for position in range(40)]
        serial = _ranking(self._fresh(*documents), queries)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for fitted_parent in (False, True):
                parent = self._fresh(*documents)
                if fitted_parent:
                    parent.search("warm", k=1)
                clone = parent.clone()
                if fitted_parent:
                    clone.add("extra", "unrelated text")
                    clone.remove("extra")
                results = {}

                def search(name, target):
                    results[name] = _ranking(target, queries)

                # Two searchers per index: more threads than cores.
                threads = [
                    threading.Thread(target=search, args=(name, target))
                    for name, target in (
                        ("parent-1", parent), ("clone-1", clone),
                        ("parent-2", parent), ("clone-2", clone),
                    )
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == dict.fromkeys(results, serial)
                assert len(results) == 4
        finally:
            sys.setswitchinterval(previous)


def _hits(hits):
    """Each hit's id and score, the score as its exact ``float.hex()``."""
    return [(hit.doc_id, hit.score.hex()) for hit in hits]


class TestSearchResultMemo:
    """A fitted state's result memo answers repeated searches exactly as a
    fresh index would, and never outside that state."""

    @pytest.fixture()
    def corpus(self, experiment_context):
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        return [(example.example_id, example.retrieval_text)
                for example in knowledge.examples()]

    @staticmethod
    def _fresh(corpus):
        index = RetrievalIndex()
        for doc_id, text in corpus:
            index.add(doc_id, text)
        return index

    def _searches(self, corpus):
        """``(query, k, candidates, extra_text)`` tuples: wide searches,
        and candidate-restricted ones in order, reversed and with every id
        twice."""
        ids = [doc_id for doc_id, _text in corpus]
        picked = ids[::3][:12]
        searches = []
        for query in ("total revenue per organisation",
                      "how many organisations are in canada",
                      "zzz qqq"):
            searches += [
                (query, 10, None, ""),
                (query, 4, None, ""),
                (query, 5, picked, ""),
                (query, 5, picked[::-1], ""),
                (query, 5, picked + picked, ""),
                (query, 3, picked, "sponsorship deal value"),
            ]
        return searches

    def test_hits_equal_a_fresh_index(self, corpus):
        from repro.obs.metrics import get_metrics

        metrics = get_metrics()
        index = self._fresh(corpus)
        searches = self._searches(corpus)
        for query, k, candidates, extra_text in searches:
            index.search(query, k, candidates, extra_text)
        before = metrics.counter_value("retrieval.memo_hits")
        for query, k, candidates, extra_text in searches:
            memoised = index.search(query, k, candidates, extra_text)
            fresh = self._fresh(corpus).search(
                query, k, candidates, extra_text
            )
            assert _hits(memoised) == _hits(fresh), (query, k, candidates)
            assert memoised
        assert (metrics.counter_value("retrieval.memo_hits") - before
                == len(searches))

    def test_mutating_a_returned_list_does_not_reach_the_memo(self, corpus):
        index = self._fresh(corpus)
        query = "total revenue per organisation"
        first = index.search(query, k=5)
        expected = _hits(first)
        first.reverse()
        first.append(first[0])
        second = index.search(query, k=5)
        assert _hits(second) == expected
        second.clear()
        assert _hits(index.search(query, k=5)) == expected

    def test_edited_clone_never_reads_its_parents_results(self, corpus):
        from repro.obs.metrics import get_metrics

        metrics = get_metrics()
        query = "total revenue per organisation"
        parent = self._fresh(corpus)
        parent.search(query, k=5)
        untouched = parent.clone()
        before = metrics.counter_value("retrieval.memo_hits")
        untouched.search(query, k=5)
        assert metrics.counter_value("retrieval.memo_hits") == before + 1
        edited = parent.clone()
        edited.add("ex-new", "total revenue per organisation per month")
        edited.remove(corpus[0][0])
        hits = edited.search(query, k=5)
        assert metrics.counter_value("retrieval.memo_hits") == before + 1
        assert hits[0].doc_id == "ex-new"
        fresh = self._fresh(
            corpus[1:] + [("ex-new", "total revenue per organisation per "
                                     "month")]
        )
        assert _hits(hits) == _hits(fresh.search(query, k=5))

    def test_a_hit_is_counted_on_the_span(self):
        from repro.obs.tracing import Tracer

        index = RetrievalIndex()
        index.add("d1", "total revenue per organisation")
        tracer = Tracer()
        with tracer.span("retrieve") as span:
            index.search("revenue", k=1)
            index.search("revenue", k=1)
        assert span.attributes["retrieval.searches"] == 2
        assert span.attributes["retrieval.memo_hits"] == 1


class TestRefitCounter:
    def test_each_refit_counted_in_registry_and_span(self):
        from repro.obs.metrics import get_metrics
        from repro.obs.tracing import Tracer

        metrics = get_metrics()
        before = metrics.counter_value("retrieval.refits")
        index = RetrievalIndex()
        index.add("d1", "total revenue per organisation")
        tracer = Tracer()
        with tracer.span("retrieve") as span:
            index.search("revenue", k=1)
            index.search("revenue again", k=1)  # clean: no refit
            index.add("d2", "television viewers")
            index.search("viewers", k=1)
        assert metrics.counter_value("retrieval.refits") - before == 2
        assert span.attributes["retrieval.refits"] == 2
        assert span.attributes["retrieval.refit_ms"] >= 0
        index.clone().search("revenue", k=1)
        assert metrics.counter_value("retrieval.refits") - before == 2


class TestSearchTimeSplit:
    def test_searches_split_embed_and_score_time_on_the_current_span(self):
        from repro.obs.tracing import Tracer

        index = RetrievalIndex()
        index.add("d1", "total revenue per organisation")
        tracer = Tracer()
        with tracer.span("retrieve") as span:
            index.search("revenue", k=1)
            index.search("viewers", k=1, candidates=["d1"])
        assert span.attributes["retrieval.searches"] == 2
        assert span.attributes["retrieval.embed_ms"] >= 0
        assert span.attributes["retrieval.score_ms"] >= 0
        assert [record.name for record in tracer.finished_spans()] == [
            "retrieve"
        ]

    def test_select_examples_span_carries_the_split(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        knowledge = experiment_context.knowledge_sets[
            "sports_holdings"
        ].clone()
        knowledge._example_index._state = None  # the search refits first
        database = experiment_context.profiles["sports_holdings"].database
        result = GenEditPipeline(database, knowledge).generate(
            "What is the total revenue?"
        )
        spans = [
            span for span in result.context.tracer.finished_spans()
            if span.name == "select_examples"
        ]
        assert len(spans) == 1
        attributes = spans[0].attributes
        assert attributes["retrieval.searches"] >= 1
        assert attributes["retrieval.refits"] == 1
        split_ms = sum(
            attributes[name] for name in (
                "retrieval.embed_ms", "retrieval.score_ms",
                "retrieval.refit_ms",
            )
        )
        assert 0 < split_ms <= spans[0].duration_ms


class TestSearchFingerprints:
    def test_seed7_line_matches_the_golden_fixture(self):
        """Every seed-7 search hit, bit for bit, and every generated SQL."""
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "search_fingerprints", root / "scripts" / "search_fingerprints.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        golden = (root / "tests" / "fixtures" / "golden"
                  / "search_fingerprints.txt").read_text(encoding="utf-8")
        searches, digest = module.seed_fingerprint(7)
        assert f"7 {searches} {digest}" == golden.splitlines()[0]
