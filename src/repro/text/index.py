"""Retrieval index combining an inverted index with TF-IDF re-ranking.

:class:`RetrievalIndex` is the workhorse behind every knowledge-set
retrieval operator: documents (intents, examples, instructions) are added
with an id, text, and optional metadata; queries return the top-k ids
by cosine similarity, optionally restricted to a candidate subset (which is
how intent-keyed retrieval composes with similarity re-ranking).

Everything a refit computes lives on one :class:`FittedState`: the fitted
vectorizer, each document's ``(vector, norm)``, the inverted index, the
postings table, the memo of query embeddings and the memo of search
results. A refit builds a new state
and publishes it by a single assignment; a mutation drops it, and the
first search after that refits. A search reads the published state once, so
it scores against one consistent set of tables even if another thread
refits meanwhile. A document's token set and term counts are normalised
once and cached on its :class:`Document`, so a refit after an ``add`` only
tokenizes the new documents.

A refit is one batch pass: :meth:`TfIdfVectorizer.fit_transform` fits the
document frequencies on every document's cached term counts and returns
all vectors at once, with each term's IDF computed once per refit rather
than once per document it occurs in.

Clones are copy-on-write (:meth:`RetrievalIndex.clone`): a clone copies the
id -> :class:`Document` dict and shares its parent's documents and
published state. Nothing a refit publishes is written afterwards, except
the state's two memos and its postings table, which are filled lazily with
values every reader would compute alike. So a clone that no edit touches is
never refit, and an edited clone refits into a state of its own from cached
tokens: only its new documents are normalised. Each refit increments the
``retrieval.refits`` counter and, inside a span, that span's
``retrieval.refits`` and ``retrieval.refit_ms`` attributes.

Scoring is batched: a search whose pool holds more than
``POSTINGS_MIN_POOL`` accumulating documents sums dot products for the
whole pool in one pass over the query's terms through a term ->
``(doc_ids, weights)`` postings table instead of one sparse-dict
intersection per document. Each term's postings are two parallel lists
in document order; the weights are the document vectors' own float
objects, so the table adds two list slots per posting and no float or
tuple. The state builds that table on the first such search, and most
states never get one. An instruction or intent index
holds a few documents. A staged example refit is searched wide as well
as candidate-restricted, but the inverted pre-filter keeps only
documents that share a query token, so its pools mostly hold 24
accumulating documents or fewer (DESIGN.md §6e has the counts). The
accumulation visits exactly the nonzero terms the per-document cosine
would, in the same order, so scores are bit-identical to
:func:`cosine_with_norms` — documents with fewer terms than the query
(where that helper iterates the document side instead) are scored
individually the legacy way. Ranking keeps the k smallest ``(-score,
doc_id)`` keys, so ties break by id.

A search's ranking is a function of the fitted state and its ``(query
text, k, candidates)``, so the state memoises it: a repeated search (a
staged clone asks what its live parent already asked, on the same shared
state) embeds and scores nothing and builds a fresh :class:`SearchHit`
for each of the ranked ``(score, id)`` pairs. The memo holds at most
``RESULT_MEMO_SIZE`` searches and clears whole at that size.

Each search adds ``retrieval.searches`` to the current span, and either
``retrieval.embed_ms`` (the query embedding) and ``retrieval.score_ms``
(candidate pool, scoring and ranking), or, when the result memo answers,
``retrieval.memo_hits``, which the registry counts too. A refit it
triggers adds ``retrieval.refit_ms`` on its own. No search opens a span.
"""

from __future__ import annotations

import heapq
import logging
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from ..obs.metrics import METRICS
from ..obs.tracing import current_span
from .normalize import normalize
from .similarity import cosine_with_norms, l2_norm
from .vectorize import TfIdfVectorizer

logger = logging.getLogger(__name__)

#: Above this collection size, an empty inverted-index pre-filter no longer
#: falls back to scanning *every* document: the scan is capped (and logged)
#: so a single no-overlap query can't go quadratic on a large index.
FALLBACK_SCAN_CAP = 512

#: Memoized query transforms kept per fitted state. A query text recurs
#: almost only in back-to-back searches of one state within a question (an
#: operator's wide and candidate-restricted searches), so a few entries
#: hold nearly every reuse; the memo clears whole at this size.
QUERY_CACHE_SIZE = 16

#: Search results kept per fitted state; the memo clears whole at this
#: size. A staged clone repeats its live parent's searches on the shared
#: state of every index its edits leave alone, and the live set's state
#: serves every session of a deployment. Unbounded, no state of the
#: ``feedback_edit`` sessions of seeds 7-10 held more than 28 results,
#: and 2,100 of their 3,920 searches were repeats; a cap of 16 reaches
#: only 864 of seeds 7-8's 1,063 repeats. 64 is twice the largest count.
RESULT_MEMO_SIZE = 64

#: Pools of at most this many accumulating documents are scored per
#: document; larger ones take one pass over the postings table.
POSTINGS_MIN_POOL = 24

#: Serialises refits. Module-level (not per-instance) so an index and its
#: copy-on-write clones, which share :class:`Document` objects, need no lock
#: plumbing: refits are rare (warmup and post-edit), so one process-wide
#: lock costs nothing while guaranteeing that two concurrent first searches
#: can't both refit, and that no refit reads a shared document's cached
#: normalisation while another is writing it.
_REFRESH_LOCK = threading.Lock()


@dataclass
class Document:
    """An indexed document.

    ``tokens`` and ``term_counts`` are its normalisation, written once by
    the first refit that sees it (under the refit lock) and then shared by
    every clone that holds the document.
    """

    doc_id: str
    text: str
    metadata: dict = field(default_factory=dict)
    tokens: set = None
    term_counts: dict = None


@dataclass(frozen=True)
class SearchHit:
    """One retrieval result."""

    doc_id: str
    score: float
    document: Document


class FittedState:
    """One refit's tables, published whole by a single assignment.

    ``vectors`` maps each doc id, in document order, to its ``(vector,
    norm)`` and ``inverted`` maps each normalised token to the ids that hold
    it; neither is written after publication. The postings table, the
    query memo and the result memo are filled lazily. Two racing readers
    may both build the postings, but each publishes an equal table by one
    assignment, so every reader sees either none or a whole one; a memo
    entry is an immutable value every reader would compute alike.
    """

    __slots__ = (
        "vectorizer", "vectors", "inverted", "_postings", "_queries",
        "results", "fallback_warned",
    )

    def __init__(self, vectorizer, vectors, inverted):
        self.vectorizer = vectorizer
        self.vectors = vectors
        self.inverted = inverted
        self._postings = None
        self._queries = {}
        #: ``(query text, k, candidates tuple or None)`` -> that search's
        #: ranking, as a tuple of doc ids and a parallel tuple of scores.
        self.results = {}
        self.fallback_warned = False

    def postings(self):
        """term -> ``(doc_ids, weights)`` in document order, built on first
        use; the two lists are parallel and each weight is the document
        vector's own float."""
        postings = self._postings
        if postings is None:
            postings = {}
            for doc_id, (vector, _norm) in self.vectors.items():
                for term, weight in vector.items():
                    entry = postings.get(term)
                    if entry is None:
                        postings[term] = ([doc_id], [weight])
                    else:
                        entry[0].append(doc_id)
                        entry[1].append(weight)
            self._postings = postings
        return postings

    def remember(self, key, ranking):
        """Keep one search's ranking; clears whole at the cap."""
        results = self.results
        if len(results) >= RESULT_MEMO_SIZE:
            results.clear()
        results[key] = ranking

    def embed(self, query_text):
        """Memoized ``(vector, norm, term set)`` of a query."""
        cached = self._queries.get(query_text)
        if cached is not None:
            return cached
        vector = self.vectorizer.transform(query_text)
        entry = (vector, l2_norm(vector), set(normalize(query_text)))
        if len(self._queries) >= QUERY_CACHE_SIZE:
            self._queries.clear()
        self._queries[query_text] = entry
        return entry


class RetrievalIndex:
    """Inverted index + vector re-ranking over a document collection."""

    def __init__(self):
        self._documents = {}
        #: The published :class:`FittedState`, or ``None`` after a mutation
        #: until the next search refits.
        self._state = FittedState(TfIdfVectorizer(), {}, {})

    def __len__(self):
        return len(self._documents)

    def __contains__(self, doc_id):
        return doc_id in self._documents

    def add(self, doc_id, text, metadata=None):
        """Add (or replace) a document. Vectors refresh lazily on search."""
        self._documents[doc_id] = Document(
            doc_id=doc_id, text=text, metadata=dict(metadata or {})
        )
        self._state = None

    def remove(self, doc_id):
        if self._documents.pop(doc_id, None) is not None:
            self._state = None

    def get(self, doc_id):
        return self._documents.get(doc_id)

    def documents(self):
        return list(self._documents.values())

    def clone(self):
        """Copy-on-write copy that starts from this index's fitted state.

        The clone shares this index's documents and published state: a
        refit publishes a new state instead of writing the old one, and a
        document's only writes are its cached normalisation. A clean parent
        gives a clean clone; a dirty one gives a dirty clone.
        """
        clone = RetrievalIndex()
        clone._documents = dict(self._documents)
        clone._state = self._state
        return clone

    # -- search ----------------------------------------------------------

    def search(self, query, k=10, candidates=None, extra_text=""):
        """Top-k documents for ``query`` by cosine similarity.

        ``candidates`` restricts scoring to those ids (used for intent-keyed
        retrieval followed by re-ranking); a repeated id is scored once.
        ``extra_text`` is appended to the query before embedding — this
        implements the paper's *context expansion*, where previously
        selected knowledge (e.g. the chosen examples) expands the query used
        to re-rank the next component.
        """
        state = self._fitted()
        query_text = query if not extra_text else f"{query}\n{extra_text}"
        if candidates is not None:
            candidates = tuple(candidates)
        key = (query_text, k, candidates)
        span = current_span()
        ranking = state.results.get(key)
        if ranking is None:
            started = perf_counter()
            query_vector, query_norm, query_terms = state.embed(query_text)
            embedded = perf_counter()
            pool = self._candidate_pool(
                state, query_text, candidates, query_terms
            )
            scores = _batched_scores(state, query_vector, query_norm, pool)
            # Rank plain (−score, id) tuples: the pool is often much larger
            # than k. The memo keeps the k survivors as two flat tuples.
            ranked = heapq.nsmallest(
                k, [(-scores[doc_id], doc_id) for doc_id in pool]
            )
            ranking = (
                tuple([doc_id for _negated, doc_id in ranked]),
                tuple([scores[doc_id] for _negated, doc_id in ranked]),
            )
            state.remember(key, ranking)
            if span is not None:
                span.inc_attr("retrieval.searches", 1)
                span.inc_attr(
                    "retrieval.embed_ms", (embedded - started) * 1000.0
                )
                span.inc_attr(
                    "retrieval.score_ms", (perf_counter() - embedded) * 1000.0
                )
        else:
            METRICS.inc("retrieval.memo_hits")
            if span is not None:
                span.inc_attr("retrieval.searches", 1)
                span.inc_attr("retrieval.memo_hits", 1)
        documents = self._documents
        return [
            SearchHit(doc_id, score, documents[doc_id])
            for doc_id, score in zip(*ranking)
        ]

    def vectors(self):
        """Doc id -> ``(vector, norm)`` of the published fit (read-only)."""
        return self._fitted().vectors

    def score(self, query, doc_id):
        """Similarity of one document to ``query``."""
        state = self._fitted()
        fitted = state.vectors.get(doc_id)
        if fitted is None:
            return 0.0
        query_vector, query_norm, _terms = state.embed(query)
        vector, norm = fitted
        return cosine_with_norms(query_vector, vector, query_norm, norm)

    def _candidate_pool(self, state, query_text, candidates, query_terms=None):
        if candidates is not None:
            vectors = state.vectors
            return [
                doc_id for doc_id in dict.fromkeys(candidates)
                if doc_id in vectors
            ]
        # Inverted-index pre-filter: documents sharing at least one term.
        if query_terms is None:
            query_terms = set(normalize(query_text))
        inverted = state.inverted
        pool = set()
        for term in query_terms:
            pool.update(inverted.get(term, ()))
        if not pool:
            # Fall back to scanning the collection, but never unboundedly:
            # on a large index a no-overlap query would otherwise score
            # every document only to find nothing better than noise.
            if len(state.vectors) > FALLBACK_SCAN_CAP:
                if not state.fallback_warned:
                    state.fallback_warned = True
                    logger.warning(
                        "empty pre-filter for query %r: capping fallback "
                        "scan at %d of %d documents (repeats suppressed "
                        "until the next index refresh)",
                        query_text[:80], FALLBACK_SCAN_CAP,
                        len(state.vectors),
                    )
                return list(state.vectors)[:FALLBACK_SCAN_CAP]
            return list(state.vectors)
        return sorted(pool)

    def _fitted(self):
        """The published state, refit first if a mutation dropped it."""
        state = self._state
        if state is None:
            with _REFRESH_LOCK:
                # Double-check: a concurrent searcher may have finished the
                # refit while this thread waited on the lock.
                state = self._state
                if state is None:
                    state = self._state = self._refit()
        return state

    def _refit(self):
        """Fit a new :class:`FittedState` over the current documents."""
        # One normalisation pass per document, cached on the document so a
        # refit triggered by adding a handful of documents only pays to
        # tokenize those; the term counts feed the batch fit and the token
        # set the inverted index.
        started = perf_counter()
        vectorizer = TfIdfVectorizer()
        documents = list(self._documents.items())
        for _doc_id, document in documents:
            if document.tokens is None:
                document.tokens = set(normalize(document.text))
                document.term_counts = Counter(
                    vectorizer.terms_for(document.text)
                )
        vectors = vectorizer.fit_transform(
            [document.term_counts for _doc_id, document in documents]
        )
        fitted = {}
        inverted = {}
        for (doc_id, document), vector in zip(documents, vectors):
            fitted[doc_id] = (vector, l2_norm(vector))
            for term in document.tokens:
                ids = inverted.get(term)
                if ids is None:
                    inverted[term] = {doc_id}
                else:
                    ids.add(doc_id)
        METRICS.inc("retrieval.refits")
        span = current_span()
        if span is not None:
            span.inc_attr("retrieval.refits", 1)
            span.inc_attr(
                "retrieval.refit_ms", (perf_counter() - started) * 1000.0
            )
        return FittedState(vectorizer, fitted, inverted)


def _batched_scores(state, query_vector, query_norm, pool):
    """Cosine scores for every doc in ``pool``, one postings pass.

    Bit-identical to per-document :func:`cosine_with_norms`: that helper
    iterates the smaller of the two sparse dicts, so documents at least as
    large as the query accumulate query-term order dot products here
    (skipped zero terms contribute exactly ``+0.0``), and strictly smaller
    documents fall back to the per-document call.
    """
    scores = {}
    accumulating = {}
    vectors = state.vectors
    query_len = len(query_vector)
    for doc_id in pool:
        vector, norm = vectors[doc_id]
        if not query_vector or not vector or query_norm == 0 or norm == 0:
            scores[doc_id] = 0.0
        elif len(vector) < query_len:
            scores[doc_id] = cosine_with_norms(
                query_vector, vector, query_norm, norm
            )
        else:
            accumulating[doc_id] = 0
    if not accumulating:
        return scores
    if len(accumulating) <= POSTINGS_MIN_POOL:
        # Candidate-restricted pools: a postings pass would touch every
        # indexed document sharing a query term, almost all outside the
        # pool. Per-document products in query-term order accumulate
        # identically (each skipped posting is an exact ``+0.0``), so this
        # is the same score bit-for-bit.
        for doc_id in accumulating:
            vector, norm = vectors[doc_id]
            get = vector.get
            dot = sum([
                query_weight * get(term, 0.0)
                for term, query_weight in query_vector.items()
            ])
            scores[doc_id] = dot / (query_norm * norm)
        return scores
    postings = state.postings()
    for term, query_weight in query_vector.items():
        entry = postings.get(term)
        if entry is None:
            continue
        for doc_id, doc_weight in zip(*entry):
            if doc_id in accumulating:
                accumulating[doc_id] += query_weight * doc_weight
    for doc_id, dot in accumulating.items():
        scores[doc_id] = dot / (query_norm * vectors[doc_id][1])
    return scores
