"""Sparse TF-IDF vectorisation.

This is the reproduction's stand-in for the embedding model behind the
paper's cosine-similarity re-ranking (§3.1.1). Vectors are sparse dicts
(term -> weight) combining word unigrams, word bigrams, and character
trigrams, so both lexical and fuzzy matches contribute. The vectoriser is
fit once over a corpus (the knowledge set) and then embeds queries against
that corpus's document frequencies — mirroring how a fixed embedding model
is applied to both sides.

An index refit uses :meth:`TfIdfVectorizer.fit_transform`: one pass counts
document frequencies from each document's term ``Counter``, the IDF of
every vocabulary term is computed once, and each vector is built and then
normalised by a dict comprehension. Its vectors are bit-identical to
fitting document by document and transforming each text, and the query
side (:meth:`TfIdfVectorizer.transform`) computes IDF through the same
helper.

:func:`_terms` interns every term, so term tuples, ``Counter``s, vectors,
document frequencies and postings keys share one ``str`` per distinct
term instead of one fresh slice per occurrence. A retrieval index's
postings table (:meth:`repro.text.index.FittedState.postings`) holds each
term's ``(doc_ids, weights)`` as two parallel lists whose weights are
these vectors' own floats, so it allocates no float of its own.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter

from .normalize import char_ngrams, ngrams, normalize


@functools.lru_cache(maxsize=1024)
def _terms(text):
    """The term tuple of ``text``: tokens, word bigrams, character trigrams.

    Memoised because the same text crosses several vectorizers (one
    question embeds against the example, instruction and schema indexes;
    a mined document is fit and then transformed).

    Each term is interned, so every cached tuple holds the one shared
    ``str`` of each distinct term rather than its own copy of ``"the"``
    or ``"ale"``: values and order are unchanged, so IDF, vectors and
    scores are bit-identical, and the memo holds about a sixth of the
    bytes. Interned strings are immortal on Python 3.12 (not on 3.10,
    3.11 or 3.13+); the vocabulary of a benchmark run levels off at about
    6.4k terms of about 9 characters, under 1 MB even if never freed.

    The cap holds one deployment: one seed's six knowledge sets and dev
    questions use about 650 distinct texts here, so 1024 keeps them all
    while texts of earlier seeds age out (DESIGN.md §6d).
    """
    tokens = normalize(text)
    return tuple(map(
        sys.intern, tokens + ngrams(tokens, 2) + char_ngrams(text, 3)
    ))


class TfIdfVectorizer:
    """Fit on a corpus of texts; transform texts to sparse weight dicts."""

    def __init__(self):
        self._document_frequency = Counter()
        self._document_count = 0
        self._idf_by_frequency = {}

    # -- fitting ----------------------------------------------------------

    def fit(self, texts):
        """Accumulate document frequencies from ``texts``. Returns self."""
        for text in texts:
            self.fit_one(text)
        return self

    def fit_one(self, text):
        """Accumulate document frequencies from one text. Returns self."""
        self._document_count += 1
        self._idf_by_frequency = {}
        for term in set(_terms(text)):
            self._document_frequency[term] += 1
        return self

    def fit_transform(self, term_counts):
        """Fit on per-document term ``Counter``s; return their vectors.

        The batch form of :meth:`fit_one` over every document followed by
        :meth:`transform` of each: the same document frequencies, the same
        IDF per term and the same weights and divisions in the same order,
        so every vector is bit-identical. Each term's IDF is looked up once
        per fit instead of once per document it occurs in. Every fitted
        term has IDF >= 1, so no weight is dropped as non-positive.
        """
        term_counts = list(term_counts)
        document_frequency = self._document_frequency
        for counts in term_counts:
            document_frequency.update(counts.keys())
        self._document_count += len(term_counts)
        self._idf_by_frequency = {}
        idf_by_frequency = {
            frequency: self._idf(frequency)
            for frequency in set(document_frequency.values())
        }
        idf = {
            term: idf_by_frequency[frequency]
            for term, frequency in document_frequency.items()
        }
        log = math.log
        sqrt = math.sqrt
        vectors = []
        for counts in term_counts:
            vector = {
                term: idf[term] if count == 1
                else (1.0 + log(count)) * idf[term]
                for term, count in counts.items()
            }
            norm = sqrt(sum([value * value for value in vector.values()]))
            vectors.append(
                {term: value / norm for term, value in vector.items()}
            )
        return vectors

    def _idf(self, frequency):
        """Smoothed IDF of a term in ``frequency`` fitted documents.

        Unseen terms (frequency 0) get the maximum weight so novel domain
        words (e.g. 'qoqfp') dominate similarity when present. Only the
        frequency varies per term, so the log is computed once per distinct
        frequency (the memo resets whenever fitting changes the count).
        """
        idf = self._idf_by_frequency.get(frequency)
        if idf is None:
            idf = math.log(
                (1 + self._document_count) / (1 + frequency)
            ) + 1.0
            self._idf_by_frequency[frequency] = idf
        return idf

    @property
    def is_fitted(self):
        return self._document_count > 0

    # -- transforming ----------------------------------------------------------

    def transform(self, text):
        """Embed ``text`` as a sparse, L2-normalised TF-IDF dict."""
        counts = Counter(_terms(text))
        if not counts:
            return {}
        # ``count == 1`` (the common case) makes the TF factor exactly 1.0,
        # so the weight is the IDF itself, bit-for-bit.
        document_frequency = self._document_frequency
        idf_by_frequency = self._idf_by_frequency
        log = math.log
        vector = {}
        for term, count in counts.items():
            frequency = document_frequency.get(term, 0)
            idf = idf_by_frequency.get(frequency)
            if idf is None:
                idf = self._idf(frequency)
            weight = idf if count == 1 else (1.0 + log(count)) * idf
            if weight > 0:
                vector[term] = weight
        norm = math.sqrt(sum([value * value for value in vector.values()]))
        if norm == 0:
            return {}
        # Normalise in place: ``vector`` is freshly built above, so no
        # caller-visible dict is mutated and each division is the same
        # ``value / norm`` the rebuild would compute.
        for term in vector:
            vector[term] /= norm
        return vector

    def terms_for(self, text):
        """The term tuple (tokens + n-grams) this vectorizer would use.

        Callers that index many documents count these once per document
        and fit on the counts with :meth:`fit_transform`.
        """
        return _terms(text)
