"""Sparse TF-IDF vectorisation.

This is the reproduction's stand-in for the embedding model behind the
paper's cosine-similarity re-ranking (§3.1.1). Vectors are sparse dicts
(term -> weight) combining word unigrams, word bigrams, and character
trigrams, so both lexical and fuzzy matches contribute. The vectoriser is
fit once over a corpus (the knowledge set) and then embeds queries against
that corpus's document frequencies — mirroring how a fixed embedding model
is applied to both sides.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .normalize import char_ngrams, ngrams, normalize


@functools.lru_cache(maxsize=8192)
def _terms(text):
    """The term tuple of ``text``: tokens, word bigrams, character trigrams.

    Memoised because the same text crosses several vectorizers (one
    question embeds against the example, instruction and schema indexes;
    a mined document is fit and then transformed).
    """
    tokens = normalize(text)
    return tuple(tokens + ngrams(tokens, 2) + char_ngrams(text, 3))


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

    def fit_one(self, text, terms=None):
        """Accumulate document frequencies from one text. Returns self.

        ``terms`` optionally supplies the text's :meth:`terms_for` result.
        """
        self._document_count += 1
        self._idf_by_frequency = {}
        for term in set(_terms(text) if terms is None else terms):
            self._document_frequency[term] += 1
        return self

    @property
    def is_fitted(self):
        return self._document_count > 0

    # -- transforming ----------------------------------------------------------

    def transform(self, text, counts=None):
        """Embed ``text`` as a sparse, L2-normalised TF-IDF dict.

        ``counts`` optionally carries a precomputed ``Counter`` of the
        text's terms (re-transforms after a refresh reuse it — only the IDF
        side changes between refreshes).
        """
        if counts is None:
            counts = Counter(_terms(text))
        if not counts:
            return {}
        # Smoothed IDF; unseen terms get the maximum weight so novel
        # domain words (e.g. 'qoqfp') dominate similarity when present.
        # Only the document frequency varies per term, so the log is
        # computed once per distinct frequency (reset whenever fitting
        # another document changes the count). ``count == 1`` (the common
        # case) makes the TF factor exactly 1.0, so the weight is the IDF
        # itself, bit-for-bit.
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
        # Normalise in place: ``vector`` is freshly built above, so no
        # caller-visible dict is mutated and each division is the same
        # ``value / norm`` the rebuild would compute.
        for term in vector:
            vector[term] /= norm
        return vector

    def terms_for(self, text):
        """The term tuple (tokens + n-grams) this vectorizer would use.

        Callers that index many documents cache this per document and feed
        it back through ``fit_one(terms=...)``.
        """
        return _terms(text)
