"""Natural-language normalisation: tokenisation, stopwords, light stemming.

This feeds the retrieval substrate (TF-IDF vectors, inverted index). The
stemmer is a deliberately small suffix-stripper — enough to unify
"organizations"/"organization" and "viewers"/"viewer" for cosine re-ranking
without dragging in a full Porter implementation.
"""

from __future__ import annotations

import functools
import re

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9_%']+")

#: Common English stopwords plus query-boilerplate words that carry no
#: retrieval signal in Text-to-SQL questions ("show", "me", "please").
STOPWORDS = frozenset(
    """
    a an and are as at be but by for from had has have i in into is it its
    me my of on or please s show so than that the their them then there
    these they this to was we were what when where which who will with you
    your give list find tell display
    """.split()
)

_SUFFIXES = ("ations", "ation", "ingly", "ities", "ying", "ies", "ing",
             "ers", "edly", "ed", "es", "ly", "s")


def tokenize_text(text):
    """Lower-case word tokens of ``text`` (apostrophes kept inside words)."""
    return [match.group(0).lower() for match in _TOKEN_PATTERN.finditer(text)]


_ES_PLURAL = re.compile(r"(ss|x|z|ch|sh)es$")


#: Memoised per distinct word: the vocabulary across questions, documents
#: and schema texts is small and heavily repeated, while stemming walks a
#: suffix table per call.
@functools.lru_cache(maxsize=16384)
def stem(token):
    """Strip one common suffix, keeping at least 3 leading characters."""
    if token.endswith("uses") and len(token) >= 6:
        return token[:-2]  # statuses -> status, campuses -> campus
    for suffix in _SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            if suffix == "es" and not _ES_PLURAL.search(token):
                # 'leagues' -> 'league' (plain plural), not 'leagu'.
                continue
            if suffix == "s" and token.endswith("us"):
                continue  # 'status' is not a plural
            base = token[: len(token) - len(suffix)]
            if suffix in ("ies", "ying"):
                base += "y"
            return base
    return token


def normalize(text):
    """Full pipeline: tokenize, drop stopwords, stem. Returns token list.

    A fresh list per call, built from a memoised tuple, so callers may
    mutate it.
    """
    return list(_normalized(text))


#: normalize() is pure and its callers hammer the same texts (every schema
#: element per question, every indexed document per refresh), so the token
#: pipeline runs once per distinct text.
@functools.lru_cache(maxsize=8192)
def _normalized(text):
    return tuple(
        stem(token) for token in tokenize_text(text)
        if token not in STOPWORDS
    )


def ngrams(tokens, n=2):
    """Contiguous n-grams of a token list (joined with underscores)."""
    if len(tokens) < n:
        return []
    return [
        "_".join(tokens[index:index + n])
        for index in range(len(tokens) - n + 1)
    ]


def char_ngrams(text, n=3):
    """Character n-grams of the squashed text; robust to word-form noise."""
    squashed = re.sub(r"\s+", " ", text.lower()).strip()
    if len(squashed) < n:
        return [squashed] if squashed else []
    return [squashed[index:index + n] for index in range(len(squashed) - n + 1)]
