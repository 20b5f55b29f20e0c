"""Retrieval index combining an inverted index with TF-IDF re-ranking.

:class:`RetrievalIndex` is the workhorse behind every knowledge-set
retrieval operator: documents (examples, instructions, schema elements) are
added with an id, text, and optional metadata; queries return the top-k ids
by cosine similarity, optionally restricted to a candidate subset (which is
how intent-keyed retrieval composes with similarity re-ranking).

The index pays its embedding cost once per refresh: each document's vector
*and* L2 norm are precomputed, the per-document token set and term counts
are normalised a single time and cached on the document (so refreshes
after an ``add`` only re-tokenize the new documents), and query-vector
transforms are memoized until the next mutation — so context-expansion
re-ranks that reuse the same expanded query text never re-embed it.

A refit is one batch pass: :meth:`TfIdfVectorizer.fit_transform` fits the
document frequencies on every document's cached term counts and returns
all vectors at once, with each term's IDF computed once per refit rather
than once per document it occurs in. Refits stay lazy: the first search
after a mutation pays for them, never construction.

Clones are copy-on-write (:meth:`RetrievalIndex.clone`): a clone shares its
parent's fitted vectorizer, inverted index and postings, and holds shallow
copies of the parent's documents, so their cached token sets and term
counts are shared too. A refresh never mutates those tables — it builds
new ones and publishes them by assignment — and writes vectors and norms
only onto the refreshing index's own document copies. So a clone that no
edit touches is never refit, and an edited clone refits from cached
tokens: only the new documents are normalised again. Each refit increments the
``retrieval.refits`` counter and, inside a span, that span's
``retrieval.refits`` and ``retrieval.refit_ms`` attributes.

Scoring is batched: a refresh also packs every document vector into a
term -> [(doc_id, weight)] postings table, and a search accumulates dot
products for the whole candidate pool in one pass over the query's terms
instead of one sparse-dict intersection per document. The accumulation
visits exactly the nonzero terms the per-document cosine would, in the same
order, so scores are bit-identical to :func:`cosine_with_norms` — documents
with fewer terms than the query (where that helper iterates the document
side instead) are scored individually the legacy way. Ranking keeps the k
smallest ``(-score, doc_id)`` keys, so ties break by id.
"""

from __future__ import annotations

import copy
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

#: Memoized query transforms kept per index between mutations.
QUERY_CACHE_SIZE = 256

#: Serialises lazy refreshes and clones. Module-level (not per-instance) so
#: an index and its copy-on-write clones need no lock plumbing; refreshes
#: are rare (warmup and post-edit), so one process-wide lock costs nothing
#: while guaranteeing two concurrent first searches can't both rebuild and
#: interleave partially-built postings tables, and a clone never copies
#: documents a refresh is half-way through re-embedding.
_REFRESH_LOCK = threading.Lock()


@dataclass
class Document:
    """An indexed document."""

    doc_id: str
    text: str
    metadata: dict = field(default_factory=dict)
    vector: dict = field(default_factory=dict)
    norm: float = 0.0
    tokens: set = None
    term_counts: dict = None


@dataclass(frozen=True)
class SearchHit:
    """One retrieval result."""

    doc_id: str
    score: float
    document: Document


class RetrievalIndex:
    """Inverted index + vector re-ranking over a document collection."""

    def __init__(self):
        self._documents = {}
        self._inverted = {}
        self._postings = {}
        self._vectorizer = TfIdfVectorizer()
        self._query_cache = {}
        self._dirty = False
        self._fallback_warned = False

    def __len__(self):
        return len(self._documents)

    def __contains__(self, doc_id):
        return doc_id in self._documents

    def add(self, doc_id, text, metadata=None):
        """Add (or replace) a document. Vectors refresh lazily on search."""
        self._documents[doc_id] = Document(
            doc_id=doc_id, text=text, metadata=dict(metadata or {})
        )
        self._dirty = True

    def remove(self, doc_id):
        if self._documents.pop(doc_id, None) is not None:
            self._dirty = True

    def get(self, doc_id):
        return self._documents.get(doc_id)

    def documents(self):
        return list(self._documents.values())

    def clone(self):
        """Copy-on-write copy that starts from this index's fitted state.

        The fitted tables are shared: a refresh publishes new ones by
        assignment and never mutates them. Each document is a shallow copy,
        so its cached token set and term counts are shared while a refit in
        either index writes vectors and norms only to its own copies. A clean
        parent gives a clean clone; a dirty one gives a dirty clone.
        """
        clone = RetrievalIndex()
        with _REFRESH_LOCK:
            clone._documents = {
                doc_id: copy.copy(document)
                for doc_id, document in self._documents.items()
            }
            clone._vectorizer = self._vectorizer
            clone._inverted = self._inverted
            clone._postings = self._postings
            clone._query_cache = dict(self._query_cache)
            clone._dirty = self._dirty
        return clone

    # -- search ----------------------------------------------------------

    def search(self, query, k=10, candidates=None, extra_text=""):
        """Top-k documents for ``query`` by cosine similarity.

        ``candidates`` restricts scoring to those ids (used for intent-keyed
        retrieval followed by re-ranking). ``extra_text`` is appended to the
        query before embedding — this implements the paper's *context
        expansion*, where previously selected knowledge (e.g. the chosen
        examples) expands the query used to re-rank the next component.
        """
        self._refresh()
        query_text = query if not extra_text else f"{query}\n{extra_text}"
        query_vector, query_norm, query_terms = self._embed_query(query_text)
        pool = self._candidate_pool(query_text, candidates, query_terms)
        scores = self._batched_scores(query_vector, query_norm, pool)
        # Rank plain (−score, id) tuples and only build SearchHit objects
        # for the k survivors — the pool is often much larger than k.
        ranked = heapq.nsmallest(
            k, [(-scores[doc_id], doc_id) for doc_id in pool]
        )
        return [
            SearchHit(doc_id, -negated, self._documents[doc_id])
            for negated, doc_id in ranked
        ]

    def score(self, query, doc_id):
        """Similarity of one document to ``query``."""
        self._refresh()
        document = self._documents.get(doc_id)
        if document is None:
            return 0.0
        query_vector, query_norm, _terms = self._embed_query(query)
        return cosine_with_norms(
            query_vector, document.vector, query_norm, document.norm
        )

    def _batched_scores(self, query_vector, query_norm, pool):
        """Cosine scores for every doc in ``pool``, one postings pass.

        Bit-identical to per-document :func:`cosine_with_norms`: that
        helper iterates the smaller of the two sparse dicts, so documents
        at least as large as the query accumulate query-term order dot
        products here (skipped zero terms contribute exactly ``+0.0``),
        and strictly smaller documents fall back to the per-document call.
        """
        scores = {}
        accumulating = {}
        query_len = len(query_vector)
        for doc_id in pool:
            document = self._documents[doc_id]
            if (
                not query_vector
                or not document.vector
                or query_norm == 0
                or document.norm == 0
            ):
                scores[doc_id] = 0.0
            elif len(document.vector) < query_len:
                scores[doc_id] = cosine_with_norms(
                    query_vector, document.vector, query_norm, document.norm
                )
            else:
                accumulating[doc_id] = 0
        if accumulating:
            if len(accumulating) <= 24:
                # Candidate-restricted pools: a postings pass would touch
                # every indexed document sharing a query term, almost all
                # outside the pool. Per-document products in query-term
                # order accumulate identically (each skipped posting is an
                # exact ``+0.0``), so this is the same score bit-for-bit.
                for doc_id in accumulating:
                    document = self._documents[doc_id]
                    get = document.vector.get
                    dot = sum([
                        query_weight * get(term, 0.0)
                        for term, query_weight in query_vector.items()
                    ])
                    scores[doc_id] = dot / (query_norm * document.norm)
            else:
                postings = self._postings
                for term, query_weight in query_vector.items():
                    for doc_id, doc_weight in postings.get(term, ()):
                        if doc_id in accumulating:
                            accumulating[doc_id] += query_weight * doc_weight
                for doc_id, dot in accumulating.items():
                    scores[doc_id] = dot / (
                        query_norm * self._documents[doc_id].norm
                    )
        return scores

    def _embed_query(self, query_text):
        """Memoized ``(vector, norm, term set)``; valid until mutation."""
        cached = self._query_cache.get(query_text)
        if cached is not None:
            return cached
        vector = self._vectorizer.transform(query_text)
        entry = (vector, l2_norm(vector), set(normalize(query_text)))
        if len(self._query_cache) >= QUERY_CACHE_SIZE:
            self._query_cache.clear()
        self._query_cache[query_text] = entry
        return entry

    def _candidate_pool(self, query_text, candidates, query_terms=None):
        if candidates is not None:
            return [doc_id for doc_id in candidates if doc_id in self._documents]
        # Inverted-index pre-filter: documents sharing at least one term.
        if query_terms is None:
            query_terms = set(normalize(query_text))
        pool = set()
        for term in query_terms:
            pool.update(self._inverted.get(term, ()))
        if not pool:
            # Fall back to scanning the collection, but never unboundedly:
            # on a large index a no-overlap query would otherwise score
            # every document only to find nothing better than noise.
            if len(self._documents) > FALLBACK_SCAN_CAP:
                if not self._fallback_warned:
                    self._fallback_warned = True
                    logger.warning(
                        "empty pre-filter for query %r: capping fallback "
                        "scan at %d of %d documents (repeats suppressed "
                        "until the next index refresh)",
                        query_text[:80], FALLBACK_SCAN_CAP,
                        len(self._documents),
                    )
                return list(self._documents)[:FALLBACK_SCAN_CAP]
            return list(self._documents)
        return sorted(pool)

    def _refresh(self):
        if not self._dirty:
            return
        with _REFRESH_LOCK:
            # Double-check: a concurrent searcher may have finished the
            # rebuild while this thread waited on the lock.
            if not self._dirty:
                return
            self._do_refresh()

    def _do_refresh(self):
        # One normalisation pass per document, cached on the document so a
        # refresh triggered by adding a handful of documents only pays to
        # tokenize those; the term counts feed the batch fit and the token
        # set the inverted index. Built into locals and published by
        # attribute assignment, so readers that raced past the dirty check
        # see either the old complete tables or the new ones — never a
        # half-built postings list.
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
        inverted = {}
        postings = {}
        for (doc_id, document), vector in zip(documents, vectors):
            document.vector = vector
            document.norm = l2_norm(vector)
            for term in document.tokens:
                ids = inverted.get(term)
                if ids is None:
                    inverted[term] = {doc_id}
                else:
                    ids.add(doc_id)
            for term, weight in vector.items():
                entries = postings.get(term)
                if entries is None:
                    postings[term] = [(doc_id, weight)]
                else:
                    entries.append((doc_id, weight))
        self._vectorizer = vectorizer
        self._inverted = inverted
        self._postings = postings
        self._query_cache = {}
        self._dirty = False
        self._fallback_warned = False
        METRICS.inc("retrieval.refits")
        span = current_span()
        if span is not None:
            span.inc_attr("retrieval.refits", 1)
            span.inc_attr(
                "retrieval.refit_ms", (perf_counter() - started) * 1000.0
            )
