"""The diagnosis kernels against the versions they replaced.

Each reference below is the earlier implementation, copied verbatim: the
tokenizer, the numeric mentions, a number's unit and entity window, the
quantity extraction, the relation graph (with its ``_nearest``), the
binding words and the equation scan. Seeded Hypothesis draws texts from
the diagnosis digest's vocabulary, with ``$`` amounts, decimals, comma
numbers, apostrophes, sentence breaks and equation lines, and each kernel
must return exactly what its reference returns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from test_diagnose_digest import CHANGE, COMPARE, MEANINGS, NAMES, NUMBERS, RATE, UNITS
from trace_repair.equations import (
    _EQUATION_RE,
    _LCM_GCD_GATE,
    _LCM_GCD_RE,
    _OPERATORS,
    EquationCheck,
    _verify,
    check_equations,
    parse_number,
)
from trace_repair.risk_graph import (
    _DECREASE_VERBS,
    _NUMBER_WORD_VALUES,
    _STOPWORDS,
    _TOKEN_OR_BREAK_RE,
    CHANGE_VERBS,
    EDGE_CHANGE_EVENT,
    EDGE_COMPARISON,
    EDGE_RATE,
    RATE_MARKERS,
    WINDOW_TOKENS,
    QuantityGraph,
    QuantityNode,
    RelationEdge,
    TokenColumns,
    _binding_tokens,
    _comparison_deltas,
    _numbers,
    _stem,
    _token_features,
    _tokenize,
    _unit_and_entity,
    build_relation_graph,
    extract_quantities,
)

# --- References: the earlier kernels, verbatim. ---


def _reference_tokenize(text: str) -> TokenColumns:
    words: list[str] = []
    sentences: list[int] = []
    initial: list[bool] = []
    sentence = 0
    at_start = True
    # A break is "", and no token is empty.
    for word in _TOKEN_OR_BREAK_RE.findall(text):
        if not word:
            sentence += 1
            at_start = True
            continue
        words.append(word)
        sentences.append(sentence)
        initial.append(at_start)
        sentence += word.count(".")
        at_start = False
    return words, [word.lower() for word in words], sentences, initial


def _reference_numbers(lowered: list[str]) -> list[tuple[int, Fraction]]:
    numbers = []
    for index, word in enumerate(lowered):
        if word[0] == "$" or word[0].isdigit():
            value = parse_number(word.lstrip("$"))
        else:
            value = _NUMBER_WORD_VALUES.get(word)
        if value is not None:
            numbers.append((index, value))
    return numbers


def _reference_unit_and_entity(
    features: tuple[list[str], list[str]], index: int, word: str
) -> tuple[str, str]:
    units, entities = features
    if word[0] == "$":
        unit = "dollars"
    else:
        start, end = max(0, index - WINDOW_TOKENS), index + WINDOW_TOKENS + 1
        after = [candidate for candidate in units[index + 1 : end] if candidate]
        before = [candidate for candidate in units[start:index] if candidate]
        unit = after[0] if after else before[-1] if before else ""

    # The nearest entity word, the earlier one on a tie.
    count = len(entities)
    for distance in range(1, WINDOW_TOKENS + 1):
        if index >= distance and entities[index - distance]:
            return unit, entities[index - distance]
        if index + distance < count and entities[index + distance]:
            return unit, entities[index + distance]
    return unit, ""


def _reference_extract_quantities(text: str) -> tuple[TokenColumns, list[QuantityNode]]:
    tokens = _reference_tokenize(text)
    words, lowered, _, _ = tokens
    features = _token_features(tokens)
    nodes: list[QuantityNode] = []
    for index, value in _reference_numbers(lowered):
        unit, entity = _reference_unit_and_entity(features, index, lowered[index])
        window = lowered[max(0, index - WINDOW_TOKENS) : index + WINDOW_TOKENS + 1]
        nodes.append(
            QuantityNode(
                surface=words[index],
                value=value,
                unit_phrase=unit,
                entity_mention=entity,
                change_verbs=CHANGE_VERBS.intersection(window),
                token_index=index,
            )
        )
    return tokens, nodes


def _nearest(positions: list[int], target: int, candidates) -> int | None:
    """The candidate node nearest a token, the earlier on a tie; None if none."""
    inside = [index for index in candidates if 0 <= index < len(positions)]
    return min(inside, key=lambda index: (abs(positions[index] - target), index), default=None)


def _reference_build_relation_graph(
    tokens: TokenColumns, nodes: list[QuantityNode]
) -> QuantityGraph:
    _, lowered, token_sentences, _ = tokens
    positions = [node.token_index for node in nodes]
    edges = [
        RelationEdge(kind=EDGE_COMPARISON, node=nodes[index])
        for index in _comparison_deltas(lowered, positions)
    ]

    # Rate: each/per/every; the per-quantity is the node nearest the marker.
    rates: set[Fraction] = set()
    for position, word in enumerate(lowered):
        if word not in RATE_MARKERS:
            continue
        split = bisect_left(positions, position)
        per_index = _nearest(positions, position, (split - 1, split))
        if per_index is None or abs(positions[per_index] - position) > WINDOW_TOKENS:
            continue
        if nodes[per_index].value not in rates:
            rates.add(nodes[per_index].value)
            edges.append(RelationEdge(kind=EDGE_RATE, node=nodes[per_index]))

    # Change events: a node carrying a change verb, based on the nearest
    # same-sentence node; its first verb in sorted order gives the direction.
    sentences = [token_sentences[position] for position in positions]
    pairs: set[frozenset[Fraction]] = set()
    for index, node in enumerate(nodes):
        if not node.change_verbs:
            continue
        neighbours = [
            other
            for other in (index - 1, index + 1)
            if 0 <= other < len(nodes) and sentences[other] == sentences[index]
        ]
        base_index = _nearest(positions, node.token_index, neighbours)
        if base_index is None:
            continue
        base = nodes[base_index].value
        pair = frozenset({node.value, base})
        if len(pair) < 2 or pair in pairs:
            continue
        pairs.add(pair)
        decrease = min(node.change_verbs) in _DECREASE_VERBS
        edges.append(RelationEdge(kind=EDGE_CHANGE_EVENT, node=node, base=base, decrease=decrease))

    return QuantityGraph(nodes=tuple(nodes), edges=tuple(edges))


def _reference_binding_tokens(unit_phrase: str, entity_mention: str) -> frozenset[str]:
    words = set()
    for chunk in (unit_phrase, entity_mention):
        for word in chunk.lower().split():
            if word and word not in _STOPWORDS:
                words.add(_stem(word))
    return frozenset(words)


def _reference_check_equations(trace_text: str) -> list[EquationCheck]:
    checks: list[EquationCheck] = []
    # An lcm/gcd left-hand side keeps one character past its second operand.
    lcm_gcd = ((_LCM_GCD_RE, 1),) if _LCM_GCD_GATE.search(trace_text) else ()
    for pattern, lhs_overhang in ((_EQUATION_RE, 0), *lcm_gcd):
        for match in pattern.finditer(trace_text):
            a, b, c = map(parse_number, match.group("a", "b", "c"))
            if a is None or b is None or c is None:
                continue
            operator = _OPERATORS[match.group("op").lower()]
            checks.append(
                EquationCheck(
                    lhs_text=trace_text[match.start() : match.end("b") + lhs_overhang],
                    operands=(a, b),
                    operator=operator,
                    claimed_result=c,
                    verified=_verify(operator, a, b, c),
                    position=match.start(),
                )
            )

    if lcm_gcd:
        checks.sort(key=lambda check: check.position)
    return checks


# --- Texts: the digest's vocabulary and the shapes the kernels turn on. ---

_EXTRA_NUMBERS = ("$4.50", "$1,200", "1,200", "0.25", "3.5", "12.", "7/8", "Tom's", "It's")
_FILLER = ("than", "has", "had", "the", "and", "Each", "Per", "Gave", "More", "X")
_WORDS = NAMES + UNITS + NUMBERS + CHANGE + RATE + COMPARE + MEANINGS + _EXTRA_NUMBERS + _FILLER
_GAPS = (" ", " ", " ", ". ", "! ", "? ", "\n", ", ", "'")

_OPERANDS = ("3", "-4", "+2", "1,200", "3.5", ".5", "7.", "1/2", "0", "12", "1,20", "x2", "$6")
_SYMBOLS = ("+", "-", "*", "/", "x", "X", "×", "÷")

texts = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_GAPS)), max_size=40).map(
    lambda pairs: "".join(word + gap for word, gap in pairs)
)
equation_lines = st.one_of(
    st.builds(
        "{} {} {} = {}".format,
        st.sampled_from(_OPERANDS),
        st.sampled_from(_SYMBOLS),
        st.sampled_from(_OPERANDS),
        st.sampled_from(_OPERANDS),
    ),
    st.builds(
        "{}({}, {}) = {}".format,
        st.sampled_from(("lcm", "GCD", "Lcm", "gcd", "lcd")),
        st.sampled_from(_OPERANDS),
        st.sampled_from(_OPERANDS),
        st.sampled_from(_OPERANDS),
    ),
    texts,
)
traces = st.lists(equation_lines, max_size=12).map("\n".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts)
def test_problem_kernels_match_their_references(text):
    tokens = _tokenize(text)
    assert tokens == _reference_tokenize(text)
    assert _numbers(tokens[1]) == _reference_numbers(tokens[1])
    extracted = extract_quantities(text)
    assert extracted == _reference_extract_quantities(text)
    assert build_relation_graph(*extracted) == _reference_build_relation_graph(*extracted)
    for node in extracted[1]:
        assert _binding_tokens(node.unit_phrase, node.entity_mention) == (
            _reference_binding_tokens(node.unit_phrase, node.entity_mention)
        )


def _one_word_or_empty(word: str) -> bool:
    return word == "" or (word.isascii() and word.isalpha() and word.lower() not in _STOPWORDS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts)
def test_every_window_yields_one_word_or_nothing(text):
    """What ``_binding_tokens`` may assume of its inputs, at every number."""
    tokens = _tokenize(text)
    features = _token_features(tokens)
    for index, _ in _numbers(tokens[1]):
        unit, entity = _unit_and_entity(features, index, tokens[1][index])
        assert _one_word_or_empty(unit) and unit == unit.lower()
        assert _one_word_or_empty(entity)
        assert (unit, entity) == _reference_unit_and_entity(features, index, tokens[1][index])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(traces)
def test_equation_scan_matches_its_reference(trace):
    assert check_equations(trace) == _reference_check_equations(trace)
