"""Surface analysis of natural-language questions.

:func:`parse_question` performs context-free *surface* parsing: it slices a
question into metric / grouping / filter / ranking phrases without knowing
anything about the schema. Grounding those phrases against the retrieved
knowledge (columns, terms, patterns) happens later in the simulated LLM —
that split mirrors how an actual LLM's language competence is separate from
the context it is given, and it concentrates all accuracy-relevant failure
modes in grounding, where the knowledge set can help or hurt.

The grammar covers the workload's closed question language (see
``repro.bench.workloads``): aggregates, counts, group-bys with HAVING,
top-k (one- and both-ended), share-of-total, listings, quarter-over-quarter
deltas, and term-metric questions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KIND_AGGREGATE = "aggregate"
KIND_COUNT = "count"
KIND_GROUP_AGG = "group_aggregate"
KIND_TOPK = "topk"
KIND_BOTH_ENDS = "both_ends"
KIND_SHARE = "share_of_total"
KIND_LISTING = "listing"
KIND_DELTA = "quarter_delta"

_AGG_WORDS = {
    "total": "SUM",
    "average": "AVG",
    "mean": "AVG",
    "highest": "MAX",
    "maximum": "MAX",
    "lowest": "MIN",
    "minimum": "MIN",
}

_CMP_WORDS = {
    "above": ">",
    "over": ">",
    "below": "<",
    "under": "<",
    "at least": ">=",
    "at most": "<=",
}


@dataclass
class ParsedQuestion:
    """Structured surface form of one question."""

    kind: str = KIND_AGGREGATE
    metric_agg: str = ""          # SUM/AVG/MAX/MIN/COUNT/COUNT_DISTINCT/TERM
    metric_phrase: str = ""       # column phrase or term surface
    group_phrase: str = ""
    entity_phrase: str = ""
    adjectives: tuple = ()        # guideline adjectives ("online", "our", ...)
    eq_filters: tuple = ()        # ((column phrase, value text), ...)
    value_filters: tuple = ()     # bare values ("Canada", ...)
    cmp_filters: tuple = ()       # ((column phrase, op, number), ...)
    having: tuple = ()            # ((agg, column phrase, op, number), ...)
    quarter: tuple = ()           # (year, quarter) or ()
    year: int | None = None
    k: int | None = None
    both_ends: bool = False
    descending: bool = True
    delta_direction: str = ""     # "increase" | "drop" for quarter deltas
    projection_phrases: tuple = ()
    order_phrase: str = ""
    leftover: str = ""            # unconsumed text (diagnostics)
    raw: str = ""


_CANONICAL_PREFIX = re.compile(
    r"^(show me|what is|what are|which|how many|list|identify|give me|find)\b[ ,]*",
    re.IGNORECASE,
)


def canonicalize(question):
    """Rewrite a question into the canonical 'Show me ...' form (operator #1).

    'How many X ...' becomes 'Show me the number of X ...'. The canonical
    form is what the rest of the pipeline parses.
    """
    text = question.strip().rstrip(".?!").strip()
    match = _CANONICAL_PREFIX.match(text)
    if match is None:
        return f"Show me {text}"
    verb = match.group(1).lower()
    rest = text[match.end():].strip()
    if verb == "how many":
        return f"Show me the number of {rest}"
    if not rest.lower().startswith("the ") and not rest.lower().startswith(
        ("our ", "top ", "a ", "an ")
    ):
        rest = f"the {rest}"
    return f"Show me {rest}"


def parse_question(question):
    """Parse a (canonical or raw) question into a :class:`ParsedQuestion`."""
    parsed = ParsedQuestion(raw=question)
    text = canonicalize(question)
    body = re.sub(r"^show me\s+", "", text, flags=re.IGNORECASE).strip()
    body = _extract_filters(body, parsed)
    body = body.strip().strip(",").strip()
    _parse_body(body, parsed)
    return parsed


# ---------------------------------------------------------------------------
# filter extraction
# ---------------------------------------------------------------------------

_QUARTER = re.compile(r"\bfor q([1-4])\s+(\d{4})\b", re.IGNORECASE)
_YEAR = re.compile(r"\bin (\d{4})\b")
_SINCE = re.compile(r"\bsince (\d{4})\b")
_EQ = re.compile(
    r"\b(?:where|and) the ([\w %-]+?) is ([\w .'-]+?)"
    r"(?=,| and | where | for | in |$)",
    re.IGNORECASE,
)
_CMP = re.compile(
    r"\bwith (?:an? |the )?([\w %-]+?) (above|over|below|under|at least|at most) "
    r"([\d.]+)\b",
    re.IGNORECASE,
)
_HAVING = re.compile(
    r",? (?:but )?only \w+ (?:with|whose) (total|average|number of|count of) "
    r"([\w %-]+?) (above|over|below|under|at least|at most) ([\d.]+)",
    re.IGNORECASE,
)
_VALUE_IN = re.compile(r"\bin ([A-Z][\w'-]*(?: [A-Z][\w'-]*)*)")


def _extract_filters(body, parsed):
    having = []

    def grab_having(match):
        agg_word = match.group(1).lower()
        agg = "COUNT" if "count" in agg_word or "number" in agg_word else (
            "SUM" if agg_word == "total" else "AVG"
        )
        having.append(
            (agg, match.group(2).strip().lower(),
             _CMP_WORDS[match.group(3).lower()], _number(match.group(4)))
        )
        return " "

    body = _HAVING.sub(grab_having, body)
    parsed.having = tuple(having)

    quarter = _QUARTER.search(body)
    if quarter:
        parsed.quarter = (int(quarter.group(2)), int(quarter.group(1)))
        body = _QUARTER.sub(" ", body)

    eq_filters = []

    def grab_eq(match):
        eq_filters.append(
            (match.group(1).strip().lower(), match.group(2).strip())
        )
        return " "

    body = _EQ.sub(grab_eq, body)
    parsed.eq_filters = tuple(eq_filters)

    cmp_filters = []

    def grab_cmp(match):
        cmp_filters.append(
            (
                match.group(1).strip().lower(),
                _CMP_WORDS[match.group(2).lower()],
                _number(match.group(3)),
            )
        )
        return " "

    body = _CMP.sub(grab_cmp, body)
    parsed.cmp_filters = tuple(cmp_filters)

    year = _YEAR.search(body)
    if year:
        parsed.year = int(year.group(1))
        body = _YEAR.sub(" ", body)
    since = _SINCE.search(body)
    if since:
        parsed.cmp_filters = parsed.cmp_filters + (
            ("__year__", ">=", int(since.group(1))),
        )
        body = _SINCE.sub(" ", body)

    values = []

    def grab_value(match):
        values.append(match.group(1).strip())
        return " "

    body = _VALUE_IN.sub(grab_value, body)
    parsed.value_filters = tuple(values)

    return re.sub(r"\s+", " ", body)


def _number(text):
    value = float(text)
    return int(value) if value.is_integer() else value


# ---------------------------------------------------------------------------
# body parsing
# ---------------------------------------------------------------------------

_BOTH_ENDS = re.compile(
    r"^(?:the )?(?:our )?(\d+) ([\w %-]+?) with the best and worst ([\w %-]+)$",
    re.IGNORECASE,
)
_TOPK = re.compile(
    r"^the (top|bottom) (\d+) ([\w %-]+?) by ([\w %-]+)$", re.IGNORECASE
)
_SHARE = re.compile(
    r"^the share of total ([\w %-]+?) per ([\w %-]+)$", re.IGNORECASE
)
_DELTA = re.compile(
    r"^the (\d+) ([\w %-]+?) with the largest (increase|drop) in "
    r"([\w %-]+?) versus the previous quarter$",
    re.IGNORECASE,
)
_GROUPED = re.compile(
    r"^the (.+?) (?:per|for each) ([\w %-]+)$", re.IGNORECASE
)
_COUNT = re.compile(r"^the number of (distinct )?(.+)$", re.IGNORECASE)
_LISTING = re.compile(
    r"^the ((?:[\w %-]+?)(?:, [\w %-]+?)*(?: and [\w %-]+?)?) of "
    r"(?:the )?(.+?)(?:, ordered by ([\w %-]+?) from "
    r"(highest to lowest|lowest to highest))?(?:, top (\d+))?$",
    re.IGNORECASE,
)


def _parse_body(body, parsed):
    match = _BOTH_ENDS.match(body)
    if match:
        parsed.kind = KIND_BOTH_ENDS
        parsed.k = int(match.group(1))
        parsed.entity_phrase, parsed.adjectives = _strip_adjectives(
            match.group(2)
        )
        if parsed.raw and re.search(r"\bour\b", parsed.raw, re.IGNORECASE):
            parsed.adjectives = parsed.adjectives + ("our",)
        parsed.metric_agg, parsed.metric_phrase = _parse_metric(match.group(3))
        parsed.both_ends = True
        return
    match = _DELTA.match(body)
    if match:
        parsed.kind = KIND_DELTA
        parsed.k = int(match.group(1))
        parsed.group_phrase = _singular(match.group(2).strip().lower())
        parsed.delta_direction = match.group(3).lower()
        parsed.metric_agg, parsed.metric_phrase = _parse_metric(match.group(4))
        return
    match = _TOPK.match(body)
    if match:
        parsed.kind = KIND_TOPK
        parsed.descending = match.group(1).lower() == "top"
        parsed.k = int(match.group(2))
        parsed.group_phrase = _singular(match.group(3).strip().lower())
        parsed.metric_agg, parsed.metric_phrase = _parse_metric(match.group(4))
        return
    match = _SHARE.match(body)
    if match:
        parsed.kind = KIND_SHARE
        parsed.metric_agg, parsed.metric_phrase = _parse_metric(
            "total " + match.group(1)
        )
        parsed.group_phrase = _singular(match.group(2).strip().lower())
        return
    match = _GROUPED.match(body)
    if match:
        head = match.group(1).strip()
        count = _COUNT.match("the " + head)
        parsed.kind = KIND_GROUP_AGG
        if count:
            _fill_count(count, parsed)
        else:
            parsed.metric_agg, parsed.metric_phrase = _parse_metric(head)
        parsed.group_phrase = _singular(match.group(2).strip().lower())
        return
    match = _COUNT.match(body)
    if match:
        parsed.kind = KIND_COUNT
        _fill_count(match, parsed)
        return
    listing = _LISTING.match(body)
    if (
        listing
        and (" of " in body)
        and not _looks_like_metric(listing.group(1))
        and (
            len(re.split(r", | and ", listing.group(1))) >= 2
            or listing.group(3)
        )
    ):
        parsed.kind = KIND_LISTING
        columns = re.split(r", | and ", listing.group(1))
        parsed.projection_phrases = tuple(
            phrase.strip().lower() for phrase in columns if phrase.strip()
        )
        parsed.entity_phrase, parsed.adjectives = _strip_adjectives(
            listing.group(2)
        )
        if listing.group(3):
            parsed.order_phrase = listing.group(3).strip().lower()
            parsed.descending = (
                listing.group(4).lower() == "highest to lowest"
            )
        if listing.group(5):
            parsed.k = int(listing.group(5))
        return
    parsed.kind = KIND_AGGREGATE
    head = re.sub(r"^the ", "", body, flags=re.IGNORECASE)
    parsed.metric_agg, parsed.metric_phrase = _parse_metric(head)
    # 'total revenue of our organisations' — split the entity off the
    # metric phrase so adjectives and entity grounding still work.
    if " of " in parsed.metric_phrase:
        metric_part, entity_part = parsed.metric_phrase.split(" of ", 1)
        parsed.metric_phrase = metric_part.strip()
        parsed.entity_phrase, parsed.adjectives = _strip_adjectives(
            entity_part
        )
    parsed.leftover = ""


def _fill_count(match, parsed):
    entity = match.group(2).strip()
    if match.group(1):
        parsed.metric_agg = "COUNT_DISTINCT"
        parsed.metric_phrase = entity.lower()
    else:
        parsed.metric_agg = "COUNT"
        parsed.entity_phrase, parsed.adjectives = _strip_adjectives(entity)


def _parse_metric(phrase):
    """Split 'total revenue' into ('SUM', 'revenue'); terms parse as TERM."""
    words = phrase.strip().lower().split()
    if not words:
        return "TERM", phrase.strip().lower()
    if words[0] in _AGG_WORDS and len(words) > 1:
        return _AGG_WORDS[words[0]], " ".join(words[1:])
    if words[0] == "number" and len(words) > 2 and words[1] == "of":
        if words[2] == "distinct":
            return "COUNT_DISTINCT", " ".join(words[3:])
        return "COUNT", " ".join(words[2:])
    return "TERM", " ".join(words)


def _looks_like_metric(phrase):
    """True when a candidate projection list reads as a metric phrase."""
    first = phrase.strip().lower().split()
    if not first:
        return False
    return first[0] in _AGG_WORDS or (
        len(first) > 1 and first[0] == "number" and first[1] == "of"
    )


_TRAILING_VERBS = frozenset({"are", "is", "was", "were", "there", "do", "does"})


def _strip_adjectives(entity_phrase):
    """Split leading qualifier words off an entity phrase.

    'our online orders' -> ('orders', ('our', 'online')). Any leading word
    is treated as a candidate adjective when the remaining phrase is still
    non-empty; grounding decides later whether an adjective is a guideline
    term, part of the entity name, or noise.
    """
    words = entity_phrase.strip().lower().replace("the ", "", 1).split()
    while words and words[-1] in _TRAILING_VERBS:
        words.pop()
    adjectives = []
    while len(words) > 1 and words[0] in _KNOWN_ADJECTIVES:
        adjectives.append(words.pop(0))
    return _singular(" ".join(words)), tuple(adjectives)


#: Guideline adjectives used across the workloads. Grounding still needs a
#: matching instruction to translate one into a predicate; this set only
#: tells the surface parser what can be split off an entity phrase.
_KNOWN_ADJECTIVES = frozenset(
    {
        "our", "online", "urgent", "honor", "long", "renewable",
        "completed", "returned", "express", "recovered", "passed",
        "active", "controlled",
        # company-colloquial adjectives that may lack a guideline entry
        "flagship", "storied", "premium", "discounted", "senior",
        "uninsured", "veteran", "advanced", "overnight", "heavy",
        "legacy", "compact",
    }
)


def _singular(phrase):
    """Light singularisation of an entity/group phrase."""
    words = phrase.split()
    if not words:
        return phrase
    last = words[-1]
    if last.endswith("ies") and len(last) > 4:
        last = last[:-3] + "y"
    elif last.endswith(("sses", "ches", "shes", "xes", "zes")):
        last = last[:-2]
    elif (
        last.endswith("s")
        and not last.endswith(("ss", "us"))
        and len(last) > 3
    ):
        last = last[:-1]
    words[-1] = last
    return " ".join(words)
