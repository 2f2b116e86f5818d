"""Surface semantic-risk graph over quantity mentions.

Finds quantity mentions in problem and trace from deterministic surface
patterns (no parser, no learned model), emits risk signals from five
checks, and scores the trace by subtracting per-risk penalties from 1.0,
clipped to [0, 1]. The signals are recall-oriented diagnostic features:
most warnings are benign and the acceptance policy filters them.

Each text is read by one regex pass that yields its tokens and its
sentence breaks. The tokens come out as columns (text, lowered text,
sentence index, sentence-initial flag), and each token's unit word and
entity word are computed once, the entity word only for a capitalised
token, so every node reads its five-token window from list slots. The problem's graph has one edge per relation a check
tests, filtered and deduplicated once, and each edge carries its node:

- comparison ("more/fewer/less than"): ``_check_comparisons`` takes the
  problem's delta from the first one the trace does not add or subtract;
- rate ("each/per/every"), one per per-quantity value: ``_check_rate_usage``
  requires it to be multiplied or divided in the trace;
- change_event (gave, lost, bought, ...), one per pair of a changed value
  and a different base value: ``_check_change_events`` flags a trace that
  adds what the problem removes, or the reverse.

The tokens are walked for comparisons only when they hold a comparative
marker, and for rates only when they hold a rate marker. A value's binding
is the stems of its nodes' unit and entity words, at most two per node.

The trace gets no graph and no nodes, only what the checks read of it: its
token columns and each number's ``(token index, value)``, in token order.
``_check_comparisons`` looks for a comparison in the trace only when a
problem delta is neither added nor subtracted there, and stops at the first. ``_check_quantity_binding``
looks up the problem's binding once per distinct number token, builds the
unit and entity columns at the first bound number, and reads a window only
at a bound number whose value it has not yet flagged and that is a ``$``
token or has a unit or entity word in reach: no other window can bind. The
operand checks read the trace's ``equations.operand_index``.
``_unit_and_entity`` is the one definition of a number's window for the
problem's nodes and the trace's bound numbers alike. Nodes are in token
order, so each nearest-node lookup reads two list neighbours and the graph
is linear in text length.

A problem is analysed once per example (``ProblemAnalysis``) and shared by
the diagnosis of every trace for it. The analysis holds everything the
checks read of the problem: the graph, its numeric mentions, each value's
binding words, the first "N times more" phrase, the equal-split flag and
the kind of quantity the question asks for. No check reads problem text.
Digit tokens become values through ``equations.parse_number``, which keeps
the values it has parsed, so a token that the quantities, the numeric
mentions and the equation scan all read is parsed once.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .answers import ReasoningTrace, as_fraction
from .equations import (
    OP_ADD,
    OP_DIV,
    OP_MUL,
    OP_SUB,
    EquationCheck,
    OperandIndex,
    check_equations,
    numeric_mentions,
    operand_index,
    parse_number,
)

RISK_QUANTITY_BINDING = "quantity_binding_error"
RISK_COMPARISON = "comparison_warning"
RISK_RATE_MISSING = "per_entity_rate_missing"
RISK_CHANGE_EVENT = "change_event_misinterpretation"
RISK_ANSWER_FORMAT = "answer_format_warning"
RISK_TIMES_MORE = "times_more_interpretation"
RISK_EQUALLY_SPLIT = "equally_split_interpretation"
RISK_GENERATION_FAILURE = "generation_failure"

RISK_CATEGORIES = (
    RISK_QUANTITY_BINDING,
    RISK_COMPARISON,
    RISK_RATE_MISSING,
    RISK_CHANGE_EVENT,
    RISK_ANSWER_FORMAT,
    RISK_TIMES_MORE,
    RISK_EQUALLY_SPLIT,
    RISK_GENERATION_FAILURE,
)

SEVERITY_HIGH = "high"
SEVERITY_WARNING = "warning"

# Categories that are always high severity. Quantity-binding conflicts are
# high only when the trace reuses a binding the problem attaches to a
# different value; weaker mismatches stay warnings.
HIGH_RISK_CATEGORIES = frozenset(
    {RISK_TIMES_MORE, RISK_RATE_MISSING, RISK_EQUALLY_SPLIT, RISK_CHANGE_EVENT}
)

DIAGNOSIS_OK = "ok"
DIAGNOSIS_GENERATION_FAILURE = "generation_failure"

EDGE_COMPARISON = "comparison"
EDGE_RATE = "rate"
EDGE_CHANGE_EVENT = "change_event"

PENALTIES = {SEVERITY_HIGH: 0.35, SEVERITY_WARNING: 0.15}

WINDOW_TOKENS = 5

NUMBER_WORDS: dict[str, int] = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
    "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
    "seventy": 70, "eighty": 80, "ninety": 90, "dozen": 12,
}
_NUMBER_WORD_VALUES = {word: Fraction(value) for word, value in NUMBER_WORDS.items()}

_DECREASE_VERBS = frozenset({
    "gave", "give", "gives", "given", "lost", "lose", "loses",
    "spent", "spend", "spends", "removed", "remove", "removes",
})
_INCREASE_VERBS = frozenset({
    "bought", "buy", "buys", "received", "receive", "receives",
    "added", "add", "adds",
})
CHANGE_VERBS = _DECREASE_VERBS | _INCREASE_VERBS

RATE_MARKERS = frozenset({"each", "per", "every"})
AGGREGATION_MARKERS = frozenset({"total", "together", "altogether"})
COMPARATIVE_MARKERS = frozenset({"more", "fewer", "less"})

PREDICATE_LEXICON = (
    COMPARATIVE_MARKERS
    | AGGREGATION_MARKERS
    | RATE_MARKERS
    | CHANGE_VERBS
    | {"left", "remaining", "remain", "remains", "all"}
)

_STOPWORDS = frozenset({
    "a", "an", "the", "of", "to", "in", "on", "at", "and", "or", "with",
    "for", "from", "by", "his", "her", "their", "its", "he", "she", "they",
    "it", "we", "you", "i", "is", "are", "was", "were", "be", "been",
    "has", "have", "had", "do", "does", "did", "how", "many", "much",
    "what", "when", "who", "than", "then", "there", "some", "if", "as",
    "that", "this", "these", "those", "will", "would", "can", "could",
    "about", "now", "so", "but", "not", "out", "up", "other",
})
_ARITH_WORDS = frozenset({
    "plus", "minus", "times", "divided", "equals", "sum", "difference",
    "final", "answer", "step", "result",
})
_UNIT_EXCLUSIONS = _STOPWORDS | _ARITH_WORDS | PREDICATE_LEXICON | set(NUMBER_WORDS)

_TOKEN_RE = re.compile(r"\$?\d[\d,]*(?:\.\d+)?(?:/\d+)?|[A-Za-z]+(?:'[A-Za-z]+)?")
# A token, or a sentence break outside any token. No token starts with a
# break character, so the tokens found are exactly ``_TOKEN_RE``'s.
_TOKEN_OR_BREAK_RE = re.compile(rf"({_TOKEN_RE.pattern})|[.!?]")

# A text's tokens as columns: text, lowered text, sentence index and
# sentence-initial flag.
TokenColumns = tuple[list[str], list[str], list[int], list[bool]]


class QuantityNode(NamedTuple):
    surface: str
    value: Fraction
    unit_phrase: str
    entity_mention: str
    change_verbs: frozenset[str]
    token_index: int


class RelationEdge(NamedTuple):
    """One relation a check tests.

    ``node`` is a comparison's delta, a rate's per-quantity or the changed
    quantity; a change also has the ``base`` value it changes.
    """

    kind: str
    node: QuantityNode
    base: Fraction | None = None
    decrease: bool = False


class QuantityGraph(NamedTuple):
    nodes: tuple[QuantityNode, ...]
    edges: tuple[RelationEdge, ...]


class ProblemAnalysis(NamedTuple):
    """Everything the checks read of a problem text.

    ``bindings`` maps each node value to the union of its nodes' binding
    words. ``times_more`` is the first "N times more" phrase with its
    multiplier, or None when there is none or N is not a number.
    ``requested`` is "difference", "total" or None, read from the question.
    """

    graph: QuantityGraph
    mentions: frozenset[Fraction]
    bindings: dict[Fraction, frozenset[str]]
    times_more: tuple[str, Fraction] | None
    equal_split: bool
    requested: str | None


def analyse_problem(text: str) -> ProblemAnalysis:
    """Parse a problem once; every trace diagnosed against it shares this."""
    graph = build_relation_graph(*extract_quantities(text))
    bindings: dict[Fraction, frozenset[str]] = {}
    for node in graph.nodes:
        # One hash per node; a second only for a value seen before.
        words = _binding_tokens(node.unit_phrase, node.entity_mention)
        binding = bindings.setdefault(node.value, words)
        if binding is not words:
            bindings[node.value] = binding | words
    # Each scan runs only on a text that holds its keyword (see the scans).
    lowered = text.lower()
    times = "times" in lowered or not text.isascii()
    match = _TIMES_MORE_RE.search(text) if times else None
    mention = _numbers([match.group(1).lower()]) if match else []
    split = "equally" in lowered or "evenly" in lowered
    return ProblemAnalysis(
        graph,
        frozenset(numeric_mentions(text)),
        bindings,
        (match.group(0), mention[0][1]) if mention else None,
        split and _EQUAL_SPLIT_RE.search(text) is not None,
        _requested_kind(text),
    )


class RiskSignal(NamedTuple):
    category: str
    severity: str
    evidence: tuple[str, ...]


class GraphReport(NamedTuple):
    risks: tuple[RiskSignal, ...]
    score: float
    diagnosis: str


def has_high_risk(report: GraphReport) -> bool:
    return any(risk.severity == SEVERITY_HIGH for risk in report.risks)


def graph_clean(report: GraphReport) -> bool:
    """Not a generation failure and no high-severity risk."""
    return report.diagnosis != DIAGNOSIS_GENERATION_FAILURE and not has_high_risk(report)


def risk_categories(report: GraphReport) -> list[str]:
    return [risk.category for risk in report.risks]


def _tokenize(text: str) -> TokenColumns:
    """A text's tokens as columns, from one pass over the text.

    A token's sentence index counts every break character before it,
    including the "." inside an earlier decimal. A token is sentence-initial
    when it comes first or a break outside any token precedes it.
    """
    words: list[str] = []
    sentences: list[int] = []
    initial: list[bool] = []
    add_word, add_sentence, add_initial = words.append, sentences.append, initial.append
    sentence = 0
    at_start = True
    # A break is "", and no token is empty.
    for word in _TOKEN_OR_BREAK_RE.findall(text):
        if not word:
            sentence += 1
            at_start = True
            continue
        add_word(word)
        add_sentence(sentence)
        add_initial(at_start)
        if "." in word:
            sentence += word.count(".")
        at_start = False
    return words, [word.lower() for word in words], sentences, initial


def _numbers(lowered: list[str]) -> list[tuple[int, Fraction]]:
    """Each numeric mention's token index and value, in token order.

    A mention is a lowered token that is a number word or a digit string,
    a token that starts with ``$`` or a digit.
    """
    numbers: list[tuple[int, Fraction]] = []
    add = numbers.append
    for index, word in enumerate(lowered):
        if word in _NUMBER_WORD_VALUES:
            add((index, _NUMBER_WORD_VALUES[word]))
        elif word[0] == "$" or word[0].isdigit():
            value = parse_number(word.lstrip("$"))
            if value is not None:
                add((index, value))
    return numbers


def _entity_word(text: str, sentence_initial: bool) -> str:
    """A token's entity word, or "" if it has none.

    That is a capitalised word, not at a sentence start and not excluded
    as a unit, up to any apostrophe ("Tom" of "Tom's").
    """
    if not text[0].isupper() or sentence_initial:
        return ""
    word = text.split("'")[0]
    return "" if word.lower() in _UNIT_EXCLUSIONS else word


def _token_features(tokens: TokenColumns) -> tuple[list[str], list[str]]:
    """Each token's unit word and entity word, "" where it has none; only a
    capitalised token is read for an entity word."""
    words, lowered, _, initial = tokens
    units = [
        word if word.isalpha() and len(word) > 1 and word not in _UNIT_EXCLUSIONS else ""
        for word in lowered
    ]
    return units, [
        _entity_word(w, first) if w[0].isupper() else "" for w, first in zip(words, initial)
    ]


def _unit_and_entity(
    features: tuple[list[str], list[str]], index: int, word: str
) -> tuple[str, str]:
    """The unit phrase and entity mention of the number token ``word`` at
    ``index``, from the five-token window on each side of it."""
    units, entities = features
    if word[0] == "$":
        unit = "dollars"
    else:
        # The first unit word after the number, or else the last before it.
        after = units[index + 1 : index + WINDOW_TOKENS + 1]
        before = units[max(0, index - WINDOW_TOKENS) : index]
        unit = next(filter(None, after), "") or next(filter(None, reversed(before)), "")

    # The nearest entity word, the earlier one on a tie.
    count = len(entities)
    for distance in range(1, WINDOW_TOKENS + 1):
        if index >= distance and entities[index - distance]:
            return unit, entities[index - distance]
        if index + distance < count and entities[index + distance]:
            return unit, entities[index + distance]
    return unit, ""


def extract_quantities(text: str) -> tuple[TokenColumns, list[QuantityNode]]:
    """Tokenise a text and turn every numeric mention into a quantity node.

    Digit strings, number words, fractions, and money expressions all
    count. Unit phrase, entity mention, and change verbs come from a
    five-token window on each side. One pass over the text yields its
    tokens as columns; each token's unit word and entity word are computed
    once, and every window reads them from there. Returns the token columns
    with the nodes, so that nothing tokenises the text again.
    """
    tokens = _tokenize(text)
    words, lowered, _, _ = tokens
    features = _token_features(tokens)
    nodes: list[QuantityNode] = []
    for index, value in _numbers(lowered):
        unit, entity = _unit_and_entity(features, index, lowered[index])
        window = lowered[max(0, index - WINDOW_TOKENS) : index + WINDOW_TOKENS + 1]
        nodes.append(
            QuantityNode(
                words[index], value, unit, entity, CHANGE_VERBS.intersection(window), index
            )
        )
    return tokens, nodes


def _comparison_deltas(words: list[str], positions: list[int]) -> Iterator[int]:
    """Yield the delta node of each "more/fewer/less than", in text order.

    The delta is the nearest node at or before the marker within the
    window, or else the nearest after it; a marker with neither yields none.
    """
    for position, word in enumerate(words):
        if word not in COMPARATIVE_MARKERS or words[position + 1 : position + 2] != ["than"]:
            continue
        split = bisect_right(positions, position)
        for index in (split - 1, split):
            if 0 <= index < len(positions) and abs(positions[index] - position) <= WINDOW_TOKENS:
                yield index
                break


def build_relation_graph(tokens: TokenColumns, nodes: list[QuantityNode]) -> QuantityGraph:
    """One edge per relation a check tests, over ``extract_quantities(text)``.

    Comparisons come one per marker, rates one per value and changes one per
    pair of distinct values, each the first in text order. The tokens are
    walked for comparisons only when they hold a comparative marker, and for
    rates only when they hold a rate marker.
    """
    _, lowered, token_sentences, _ = tokens
    positions = [node.token_index for node in nodes]
    edges = []
    if not COMPARATIVE_MARKERS.isdisjoint(lowered):
        edges = [
            RelationEdge(EDGE_COMPARISON, nodes[index])
            for index in _comparison_deltas(lowered, positions)
        ]

    # Rate: each/per/every; the per-quantity is the node nearest the marker,
    # the earlier on a tie. No marker is a node, so the two neighbours are
    # one before it and one after.
    if nodes and not RATE_MARKERS.isdisjoint(lowered):
        rates: set[Fraction] = set()
        for position, word in enumerate(lowered):
            if word not in RATE_MARKERS:
                continue
            nearest = bisect_left(positions, position)
            if nearest == len(positions) or (
                nearest and position - positions[nearest - 1] <= positions[nearest] - position
            ):
                nearest -= 1
            per_quantity = nodes[nearest]
            if abs(per_quantity.token_index - position) > WINDOW_TOKENS:
                continue
            if per_quantity.value not in rates:
                rates.add(per_quantity.value)
                edges.append(RelationEdge(EDGE_RATE, per_quantity))

    # Change events: a node carrying a change verb, based on the nearer of
    # its same-sentence neighbour nodes, the earlier on a tie; its first verb
    # in sorted order gives the direction.
    pairs: set[frozenset[Fraction]] = set()
    last = len(nodes) - 1
    for index, node in enumerate(nodes):
        if not node.change_verbs:
            continue
        at = node.token_index
        sentence = token_sentences[at]
        base_index = None
        if index < last and token_sentences[positions[index + 1]] == sentence:
            base_index = index + 1
        if index and token_sentences[positions[index - 1]] == sentence and (
            base_index is None or at - positions[index - 1] <= positions[index + 1] - at
        ):
            base_index = index - 1
        if base_index is None:
            continue
        base = nodes[base_index].value
        pair = frozenset((node.value, base))
        if len(pair) < 2 or pair in pairs:
            continue
        pairs.add(pair)
        decrease = min(node.change_verbs) in _DECREASE_VERBS
        edges.append(RelationEdge(EDGE_CHANGE_EVENT, node, base, decrease))

    return QuantityGraph(tuple(nodes), tuple(edges))


def _binding_tokens(unit: str, entity: str) -> frozenset[str]:
    """A number's binding: the stems of its unit word and entity word.

    Both come from ``_unit_and_entity``, so each is "" or one letters-only
    word whose lowered form is outside ``_UNIT_EXCLUSIONS``, which holds
    ``_STOPWORDS``; the unit is already lowered. A binding is therefore at
    most two stems, and no word of it is a stopword.
    """
    return frozenset(_stem(word) for word in (unit, entity.lower()) if word)


def _stem(word: str) -> str:
    if len(word) > 3 and word.endswith("s"):
        return word[:-1]
    return word


def _check_quantity_binding(
    problem: ProblemAnalysis, tokens: TokenColumns, numbers: list[tuple[int, Fraction]]
) -> list[RiskSignal]:
    """Same number bound to a different entity/unit than in the problem.

    Reads the trace's token columns and its numbers' ``(token index,
    value)``. Each distinct token's binding is looked up once. The unit and
    entity columns are built at the first bound number, with the positions
    of the tokens that have a unit or entity word. A window is read only at
    a bound number whose value is not yet flagged, and only at a ``$`` token
    or one with such a position within ``WINDOW_TOKENS``: any other
    window's binding is empty, which never flags.
    """
    words, lowered, _, _ = tokens
    signals: list[RiskSignal] = []
    # Each distinct token's value and problem binding; None once the value
    # is flagged, or when the problem does not bind it. Token strings hash
    # once, so no value is hashed more than once per distinct token.
    bound: dict[str, tuple[Fraction, frozenset[str]] | None] = {}
    flagged: set[Fraction] = set()
    features = worded = None
    for index, value in numbers:
        word = lowered[index]
        if word in bound:
            entry = bound[word]
        else:
            same_binding = problem.bindings.get(value)
            # An empty ``flagged`` is not probed: a probe hashes the value.
            if same_binding and (not flagged or value not in flagged):
                entry = (value, same_binding)
            else:
                entry = None
            bound[word] = entry
        if entry is None:
            continue
        if features is None:
            features = _token_features(tokens)
            units, entities = features
            worded = [at for at, unit in enumerate(units) if unit or entities[at]]
        if word[0] != "$":
            nearest = bisect_left(worded, index - WINDOW_TOKENS)
            if nearest == len(worded) or worded[nearest] > index + WINDOW_TOKENS:
                continue
        unit, entity = _unit_and_entity(features, index, word)
        trace_binding = _binding_tokens(unit, entity)
        same_binding = entry[1]
        if not trace_binding or trace_binding & same_binding:
            continue
        flagged.add(value)
        for other, other_entry in bound.items():
            if other_entry is not None and other_entry[0] == value:
                bound[other] = None
        evidence = (
            f"trace uses {words[index]} with '{unit or entity}'; "
            f"problem binds it to '{' '.join(sorted(same_binding))}'",
        )
        # The trace's words miss this value's binding, so any overlap is with
        # another value's.
        if any(trace_binding & other for other in problem.bindings.values()):
            severity = SEVERITY_HIGH
        else:
            severity = SEVERITY_WARNING
        signals.append(RiskSignal(RISK_QUANTITY_BINDING, severity, evidence))
    return signals


_TIMES_MORE_RE = re.compile(r"\b([A-Za-z]+|\d+)\s+times\s+more\b", re.IGNORECASE)
_EQUAL_SPLIT_RE = re.compile(
    r"\b(?:split|share[sd]?|divid\w*|distribut\w*)\b[^.!?]*\b(?:equally|evenly)\b"
    r"|\b(?:equally|evenly)\b[^.!?]*\b(?:among|between|split|share[sd]?|divid\w*)\b",
    re.IGNORECASE,
)
# Under IGNORECASE each letter of "equally" and "evenly" matches only its two
# ASCII cases, so every text ``_EQUAL_SPLIT_RE`` matches holds one of them
# once lowered. In "times", "i" also matches "ı" and "İ" and "s" matches "ſ",
# so a lowered text holds "times" wherever ``_TIMES_MORE_RE`` matches only
# when the text is ASCII; ``analyse_problem`` scans every other text.


def _operand_of(index: OperandIndex, value: Fraction, operators: tuple[str, ...]) -> bool:
    """Whether ``value`` is an operand of a trace check with one of ``operators``."""
    return any(check.operator in operators for check in index.get(value, ()))


def _check_comparisons(
    problem: ProblemAnalysis,
    lowered: list[str],
    numbers: list[tuple[int, Fraction]],
    index: OperandIndex,
) -> list[RiskSignal]:
    """A comparison delta the trace neither adds, subtracts nor states, and an
    "N times more" it never multiplies. The trace's tokens are searched for a
    comparison only when some delta is unapplied, and only up to the first."""
    signals: list[RiskSignal] = []
    deltas = [edge.node for edge in problem.graph.edges if edge.kind == EDGE_COMPARISON]
    unapplied = [
        delta for delta in deltas if not _operand_of(index, delta.value, (OP_ADD, OP_SUB))
    ]
    if unapplied and next(_comparison_deltas(lowered, [at for at, _ in numbers]), None) is None:
        signals.append(
            RiskSignal(
                RISK_COMPARISON,
                SEVERITY_WARNING,
                (f"comparison over {unapplied[0].surface} is not applied in the trace",),
            )
        )

    if problem.times_more is not None:
        phrase, multiplier = problem.times_more
        if not any(_operand_of(index, value, (OP_MUL,)) for value in (multiplier, multiplier + 1)):
            signals.append(
                RiskSignal(
                    RISK_TIMES_MORE,
                    SEVERITY_HIGH,
                    (f"'{phrase}' has no multiplication in the trace",),
                )
            )
    return signals


def _check_rate_usage(
    problem: ProblemAnalysis, trace_checks: list[EquationCheck], index: OperandIndex
) -> list[RiskSignal]:
    signals: list[RiskSignal] = []
    for edge in problem.graph.edges:
        if edge.kind != EDGE_RATE or _operand_of(index, edge.node.value, (OP_MUL, OP_DIV)):
            continue
        signals.append(
            RiskSignal(
                RISK_RATE_MISSING,
                SEVERITY_HIGH,
                (
                    f"per-quantity {edge.node.surface} "
                    f"({edge.node.unit_phrase or 'no unit'}) is never multiplied",
                ),
            )
        )

    if problem.equal_split:
        has_division = any(check.operator == OP_DIV for check in trace_checks)
        if not has_division:
            signals.append(
                RiskSignal(
                    RISK_EQUALLY_SPLIT,
                    SEVERITY_HIGH,
                    ("equal split in the problem but no division in the trace",),
                )
            )
    return signals


def _check_change_events(problem_graph: QuantityGraph, index: OperandIndex) -> list[RiskSignal]:
    signals: list[RiskSignal] = []
    for edge in problem_graph.edges:
        if edge.kind != EDGE_CHANGE_EVENT:
            continue
        # The two values differ, so a check over them has them in one of two
        # orders and is in both values' lists; the shorter list is read.
        orders = ((edge.node.value, edge.base), (edge.base, edge.node.value))
        shorter = min(index.get(edge.node.value, ()), index.get(edge.base, ()), key=len)
        operators = {check.operator for check in shorter if check.operands in orders}
        if edge.decrease and operators & {OP_ADD, OP_SUB} == {OP_ADD}:
            wrong, right = "added", "removed"
        elif not edge.decrease and operators & {OP_ADD, OP_SUB} == {OP_SUB}:
            wrong, right = "subtracted", "added"
        else:
            continue
        signals.append(
            RiskSignal(
                RISK_CHANGE_EVENT,
                SEVERITY_HIGH,
                (f"{edge.node.surface} should be {right} but the trace {wrong} it",),
            )
        )
    return signals


_ASKS_DIFFERENCE_RE = re.compile(
    r"how\s+(?:many|much)\s+(?:more|fewer|less)\b|\bdifference\b|\bleft\b|\bremain(?:s|ing)?\b",
    re.IGNORECASE,
)
_ASKS_TOTAL_RE = re.compile(
    r"\bin\s+all\b|\bin\s+total\b|\baltogether\b|\btotal\b|\bsum\b", re.IGNORECASE
)
_SENTENCE_GAP_RE = re.compile(r"(?<=[.!?])\s+")


def _question_part(problem_text: str) -> str:
    sentences = _SENTENCE_GAP_RE.split(problem_text)
    questions = [sentence for sentence in sentences if "?" in sentence]
    if questions:
        return " ".join(questions)
    return sentences[-1] if sentences else problem_text


def _requested_kind(problem_text: str) -> str | None:
    """The kind the question asks for: "difference", "total" or None."""
    question = _question_part(problem_text)
    if _ASKS_DIFFERENCE_RE.search(question):
        return "difference"
    if _ASKS_TOTAL_RE.search(question):
        return "total"
    return None


def _check_answer_format(
    requested: str | None,
    trace: ReasoningTrace,
    trace_checks: list[EquationCheck],
) -> list[RiskSignal]:
    if requested is None:
        return []

    final_value = as_fraction(trace.answer)
    if final_value is None:
        return []
    derivations = [check for check in trace_checks if check.claimed_result == final_value]
    if not derivations:
        return []
    operator = derivations[-1].operator

    mismatch = (requested == "difference" and operator == OP_ADD) or (
        requested == "total" and operator == OP_SUB
    )
    if not mismatch:
        return []
    return [
        RiskSignal(
            RISK_ANSWER_FORMAT,
            SEVERITY_WARNING,
            (f"question asks for a {requested}; answer derived by {operator}",),
        )
    ]


def semantic_graph_check(
    problem: ProblemAnalysis | str,
    trace: ReasoningTrace | str,
    trace_checks: list[EquationCheck] | None = None,
    index: OperandIndex | None = None,
) -> GraphReport:
    """Run the five risk checks and produce the clipped score.

    Takes the problem's analysis and the parsed trace (or their texts),
    and the trace's equation checks and ``equations.operand_index`` of the
    checks when the caller already has them. An empty or answerless trace is a generation failure with score 0.
    """
    if isinstance(problem, str):
        problem = analyse_problem(problem)
    if isinstance(trace, str):
        trace = ReasoningTrace.from_text(trace)
    if trace.is_empty or not trace.has_answer:
        failure = RiskSignal(RISK_GENERATION_FAILURE, SEVERITY_WARNING, ("empty or answerless trace",))
        return GraphReport((failure,), 0.0, DIAGNOSIS_GENERATION_FAILURE)

    tokens = _tokenize(trace.text)
    numbers = _numbers(tokens[1])
    if trace_checks is None:
        trace_checks = check_equations(trace.text)
    if index is None:
        index = operand_index(trace_checks)

    risks: list[RiskSignal] = []
    risks.extend(_check_quantity_binding(problem, tokens, numbers))
    risks.extend(_check_comparisons(problem, tokens[1], numbers, index))
    risks.extend(_check_rate_usage(problem, trace_checks, index))
    risks.extend(_check_change_events(problem.graph, index))
    risks.extend(_check_answer_format(problem.requested, trace, trace_checks))

    deduped: list[RiskSignal] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for risk in risks:
        key = (risk.category, risk.evidence)
        if key not in seen:
            seen.add(key)
            deduped.append(risk)

    score = 1.0
    for risk in deduped:
        score -= PENALTIES[risk.severity]
    score = min(1.0, max(0.0, score))

    return GraphReport(tuple(deduped), score, DIAGNOSIS_OK)


_SCORE_EPS = 1e-9


def graph_guard(
    initial: GraphReport,
    candidate: GraphReport,
    min_score: float,
    drop_tolerance: float,
) -> bool:
    """Candidate-side safety gate over the two graph reports.

    Passes only when the candidate is not a generation failure, carries no
    high-severity risk, meets the minimum score, and does not drop more
    than the tolerance below the initial trace's score.
    """
    if not graph_clean(candidate):
        return False
    if candidate.score + _SCORE_EPS < min_score:
        return False
    if candidate.score + _SCORE_EPS < initial.score - drop_tolerance:
        return False
    return True
