import bisect
import dataclasses
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair import risk_graph
from trace_repair.equations import parse_number
from trace_repair.risk_graph import (
    CHANGE_VERBS,
    COMPARATIVE_MARKERS,
    DIAGNOSIS_GENERATION_FAILURE,
    DIAGNOSIS_OK,
    EDGE_CHANGE_EVENT,
    EDGE_COMPARISON,
    EDGE_RATE,
    RATE_MARKERS,
    WINDOW_TOKENS,
    _DECREASE_VERBS,
    _TOKEN_RE,
    _UNIT_EXCLUSIONS,
    HIGH_RISK_CATEGORIES,
    NUMBER_WORDS,
    RISK_CATEGORIES,
    RISK_CHANGE_EVENT,
    RISK_COMPARISON,
    RISK_EQUALLY_SPLIT,
    RISK_GENERATION_FAILURE,
    RISK_QUANTITY_BINDING,
    RISK_RATE_MISSING,
    RISK_TIMES_MORE,
    SEVERITY_HIGH,
    SEVERITY_WARNING,
    GraphReport,
    RiskSignal,
    _binding_tokens,
    _check_quantity_binding,
    _entity_word,
    _numbers,
    _token_features,
    _tokenize,
    analyse_problem,
    build_relation_graph,
    extract_quantities,
    graph_guard,
    risk_categories,
    semantic_graph_check,
)


class TestExtractQuantities:
    def test_digit_mention_with_predicate(self):
        nodes = extract_quantities("He bought 3 bags")[1]
        assert len(nodes) == 1
        assert nodes[0].value == Fraction(3)
        assert nodes[0].change_verbs == {"bought"}
        assert nodes[0].unit_phrase == "bags"

    def test_number_word(self):
        nodes = extract_quantities("twelve apples")[1]
        assert nodes[0].value == Fraction(12)
        assert nodes[0].unit_phrase == "apples"

    def test_empty_text(self):
        assert extract_quantities("")[1] == []

    def test_money(self):
        nodes = extract_quantities("a ticket costs $3.50 today")[1]
        assert nodes[0].value == Fraction(7, 2)

    def test_entity_mention(self):
        nodes = extract_quantities("Sam gave Tom's 7 apples away")[1]
        seven = [node for node in nodes if node.value == 7][0]
        assert seven.entity_mention == "Tom"


def _reference_nodes(text):
    """Each node as a tuple of its fields, found by scanning every window.

    The unit is the first unit word after the number, or else the nearest
    before it; the entity is the capitalised word at the smallest
    ``(distance, before-first)`` key. Every token is lowered and tested
    again for every window it falls in.
    """
    matches = list(_TOKEN_RE.finditer(text))
    tokens = [match.group(0) for match in matches]
    initial = [
        index == 0 or any(char in ".!?" for char in text[matches[index - 1].end() : match.start()])
        for index, match in enumerate(matches)
    ]

    def is_unit(token):
        return token.isalpha() and len(token) > 1 and token.lower() not in _UNIT_EXCLUSIONS

    nodes = []
    for index, token in enumerate(tokens):
        if token.lower() in NUMBER_WORDS:
            value = Fraction(NUMBER_WORDS[token.lower()])
        elif any(char.isdigit() for char in token):
            value = parse_number(token.lstrip("$"))
        else:
            value = None
        if value is None:
            continue
        start = max(0, index - WINDOW_TOKENS)
        window = range(start, min(len(tokens), index + WINDOW_TOKENS + 1))

        unit = ""
        if token.startswith("$"):
            unit = "dollars"
        else:
            after = [other for other in window if other > index and is_unit(tokens[other])]
            before = [other for other in window if other < index and is_unit(tokens[other])]
            if after or before:
                unit = tokens[(after or before[::-1])[0]].lower()

        entity, best = "", None
        for other in window:
            word = tokens[other].split("'")[0]
            if other == index or not word or not word[0].isupper() or not word.isalpha():
                continue
            if initial[other] or word.lower() in _UNIT_EXCLUSIONS:
                continue
            key = (abs(other - index), 0 if other < index else 1)
            if best is None or key < best:
                best, entity = key, word

        verbs = frozenset(tokens[other].lower() for other in window) & CHANGE_VERBS
        nodes.append((token, value, unit, entity, verbs, index))
    return nodes


_NODE_WORDS = (
    "3", "12", "007", "1,200", "12,345.50", "3.50", "$3.50", "$2", "$1,000", "1/2", "3/0",
    "٣", "twelve", "Twelve", "dozen", "one", "Ten", "apples", "Apples", "bags", "x", "Tom",
    "Tom's", "Sam", "Mary's", "isn't", "IT", "I", "A", "The", "the", "and", "Each", "each",
    "gave", "Gave", "bought", "Lost", "more", "than", "total", "Final", ".", "!", "?", "4.",
    "2.5!", ",", "+", "=",
)


class TestNodesMatchReference:
    def test_reference_on_random_texts(self):
        rng = random.Random(20261018)
        lengths = list(range(0, 2 * WINDOW_TOKENS + 2)) + [20, 40]
        for _ in range(5000):
            words = rng.choices(_NODE_WORDS, k=rng.choice(lengths))
            text = rng.choice(("", " ")).join(words) if rng.random() < 0.2 else " ".join(words)
            nodes = [
                (
                    node.surface,
                    node.value,
                    node.unit_phrase,
                    node.entity_mention,
                    node.change_verbs,
                    node.token_index,
                )
                for node in extract_quantities(text)[1]
            ]
            assert nodes == _reference_nodes(text), text


def _reference_binding_signals(problem, trace):
    """``_check_quantity_binding`` as it reads over every trace node."""
    signals, flagged = [], set()
    for node in extract_quantities(trace)[1]:
        same = problem.bindings.get(node.value)
        if not same or node.value in flagged:
            continue
        binding = _binding_tokens(node.unit_phrase, node.entity_mention)
        if not binding or binding & same:
            continue
        flagged.add(node.value)
        high = any(binding & words for words in problem.bindings.values())
        evidence = (
            f"trace uses {node.surface} with '{node.unit_phrase or node.entity_mention}'; "
            f"problem binds it to '{' '.join(sorted(same))}'",
        )
        signals.append(
            RiskSignal(RISK_QUANTITY_BINDING, SEVERITY_HIGH if high else SEVERITY_WARNING, evidence)
        )
    return signals


class _CountingBindings(dict):
    """A problem's bindings that record every key looked up."""

    def __init__(self, bindings):
        super().__init__(bindings)
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


class TestTraceSide:
    """The trace's numbers are read without building quantity nodes."""

    def test_binding_check_matches_the_node_reference(self):
        rng = random.Random(20261019)
        for _ in range(3000):
            problem = analyse_problem(" ".join(rng.choices(_NODE_WORDS, k=rng.randint(0, 20))))
            trace = " ".join(rng.choices(_NODE_WORDS, k=rng.randint(0, 40))) + "\nFinal Answer: 3"
            signals = [
                risk
                for risk in semantic_graph_check(problem, trace).risks
                if risk.category == RISK_QUANTITY_BINDING
            ]
            assert signals == _reference_binding_signals(problem, trace), trace

    def test_unbound_numbers_build_no_node_and_look_up_each_token_once(self, count_calls):
        problem = analyse_problem("Tom has 3 bags. How many in total?")
        problem = problem._replace(bindings=_CountingBindings(problem.bindings))
        trace = "5 + 6 = 11\n5 * 2 = 10\nFive pens and 6 pens, $5 in all.\nFinal Answer: 11"
        nodes = count_calls("risk_graph", "QuantityNode")
        windows = count_calls("risk_graph", "_unit_and_entity")
        semantic_graph_check(problem, trace)
        assert nodes == [] and windows == []
        # "5", "6", "11", "2", "10", "five" and "$5".
        assert len(problem.bindings.looked_up) == 7

    def test_a_flagged_value_reads_no_more_windows(self, count_calls):
        problem = analyse_problem("Tom has 3 bags and 4 pens.")
        windows = count_calls("risk_graph", "_unit_and_entity")
        report = semantic_graph_check(
            problem, "3 apples, three apples, 3 apples and $3.\nFinal Answer: 3"
        )
        assert [risk.category for risk in report.risks] == [RISK_QUANTITY_BINDING]
        assert len(windows) == 1


class TestNodeValues:
    """Every digit string becomes a value through ``parse_number``."""

    @pytest.mark.parametrize("token", ["3.50", "$3.50", "1,200", "3/4", "007", "٣"])
    def test_digit_token(self, token):
        (node,) = extract_quantities(f"it costs {token} today")[1]
        assert node.value == parse_number(token.lstrip("$"))

    @pytest.mark.parametrize("word", ["twelve", "dozen"])
    def test_number_word(self, word):
        (node,) = extract_quantities(f"it costs {word} today")[1]
        assert node.value == NUMBER_WORDS[word]

    def test_zero_denominator_is_no_node(self):
        assert extract_quantities("it costs 3/0 today")[1] == []

    @pytest.mark.parametrize("multiplier", ["3", "three", "٣"])
    def test_times_more_multiplier(self, multiplier):
        problem = f"Tom has {multiplier} times more apples than the 5 Sam has. How many has Tom?"

        def risks(trace):
            return [risk.category for risk in semantic_graph_check(problem, trace).risks]

        assert RISK_TIMES_MORE not in risks("5 * 3 = 15\nFinal Answer: 15")
        assert RISK_TIMES_MORE in risks("5 * 7 = 35\nFinal Answer: 35")


class TestRelationGraph:
    def test_rate_edge(self):
        text = "3 bags with 4 candies each"
        graph = build_relation_graph(*extract_quantities(text))
        rate_edges = [edge for edge in graph.edges if edge.kind == EDGE_RATE]
        assert len(rate_edges) == 1
        assert rate_edges[0].node.value == Fraction(4)

    def test_comparison_edge_delta(self):
        """The delta is the node before the marker, or else the one after it."""
        for text, delta in (("Sam has 5 more than Tom's 7", 5), ("Sam has fewer than 7 apples", 7)):
            graph = build_relation_graph(*extract_quantities(text))
            comparisons = [edge for edge in graph.edges if edge.kind == EDGE_COMPARISON]
            assert [edge.node.value for edge in comparisons] == [delta]

    def test_no_markers_no_edges(self):
        text = "A sentence about 3 dogs"
        graph = build_relation_graph(*extract_quantities(text))
        assert graph.edges == ()

    def test_one_rate_edge_per_value(self):
        text = "3 boxes hold 4 pens each. 4 cups per box, 5 lids per cup."
        graph = build_relation_graph(*extract_quantities(text))
        rates = [edge.node.value for edge in graph.edges if edge.kind == EDGE_RATE]
        assert rates == [4, 5]


_SOUP_WORDS = (
    "3", "4", "4", "3.50", "twelve", "$2", "1/2", "more", "fewer", "less", "than",
    "each", "per", "every", "gave", "bought", "lost", "apples", "Tom", "and",
    ".", "!", "?", "4.", "2.5!",
)


def _reference_edges(text):
    """The graph's edges by brute force over all node pairs.

    Each edge is ``(kind, token index of its node, base value, decrease)``.
    """
    nodes = extract_quantities(text)[1]
    tokens = list(_TOKEN_RE.finditer(text))
    words = [token.group(0).lower() for token in tokens]
    breaks = [index for index, char in enumerate(text) if char in ".!?"]

    def sentence(node):
        return sum(1 for position in breaks if position < tokens[node.token_index].start())

    edges = []
    for position, word in enumerate(words):
        if word in COMPARATIVE_MARKERS and words[position + 1 : position + 2] == ["than"]:
            before = [i for i, node in enumerate(nodes) if 0 <= position - node.token_index <= WINDOW_TOKENS]
            after = [i for i, node in enumerate(nodes) if 0 < node.token_index - position <= WINDOW_TOKENS]
            members = before[-1:] + after[:1]
            if members:
                edges.append((EDGE_COMPARISON, nodes[members[0]].token_index, None, False))
    rates = set()
    for position, word in enumerate(words):
        if word not in RATE_MARKERS:
            continue
        near = sorted(
            (abs(node.token_index - position), node.token_index > position, i)
            for i, node in enumerate(nodes)
            if abs(node.token_index - position) <= WINDOW_TOKENS
        )
        if not near or nodes[near[0][2]].value in rates:
            continue
        rates.add(nodes[near[0][2]].value)
        edges.append((EDGE_RATE, nodes[near[0][2]].token_index, None, False))
    pairs = set()
    for index, node in enumerate(nodes):
        start = max(0, node.token_index - WINDOW_TOKENS)
        verbs = sorted(set(words[start : node.token_index + WINDOW_TOKENS + 1]) & CHANGE_VERBS)
        bases = sorted(
            (abs(other.token_index - node.token_index), other.token_index > node.token_index, i)
            for i, other in enumerate(nodes)
            if i != index and sentence(other) == sentence(node)
        )
        if not verbs or not bases:
            continue
        pair = frozenset({node.value, nodes[bases[0][2]].value})
        if len(pair) == 2 and pair not in pairs:
            pairs.add(pair)
            decrease = verbs[0] in _DECREASE_VERBS
            edges.append((EDGE_CHANGE_EVENT, node.token_index, nodes[bases[0][2]].value, decrease))
    return edges


class TestNearestNodeRules:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_SOUP_WORDS), max_size=60))
    def test_edges_match_all_pairs_reference(self, words):
        text = " ".join(words)
        graph = build_relation_graph(*extract_quantities(text))
        edges = [
            (edge.kind, edge.node.token_index, edge.base, edge.decrease) for edge in graph.edges
        ]
        assert edges == _reference_edges(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_SOUP_WORDS), max_size=60))
    def test_trace_comparison_flag_matches_the_full_graph(self, words):
        """The trace side finds a comparison exactly when the full graph has one."""
        trace = " ".join(words) + "\nFinal Answer: 1"
        graph = build_relation_graph(*extract_quantities(trace))
        has_comparison = any(edge.kind == EDGE_COMPARISON for edge in graph.edges)
        report = semantic_graph_check("Sam has 5 more than Tom's 7.", trace, trace_checks=[])
        assert (RISK_COMPARISON in risk_categories(report)) != has_comparison


class TestChecks:
    def test_quantity_binding_error(self):
        report = semantic_graph_check(
            "Tom has 3 bags with 4 candies.",
            "He has 4 bags so the answer is 4.\nFinal Answer: 4",
        )
        assert RISK_QUANTITY_BINDING in [risk.category for risk in report.risks]
        binding = [risk for risk in report.risks if risk.category == RISK_QUANTITY_BINDING][0]
        assert binding.severity == SEVERITY_HIGH

    def test_rate_missing_is_high(self):
        report = semantic_graph_check(
            "3 bags with 4 candies each. How many candies in all?",
            "The answer is 7.\nFinal Answer: 7",
        )
        rates = [risk for risk in report.risks if risk.category == RISK_RATE_MISSING]
        assert rates and rates[0].severity == SEVERITY_HIGH

    def test_clean_aligned_graphs(self):
        report = semantic_graph_check(
            "3 bags with 4 candies each. How many candies in all?",
            "3 * 4 = 12\nFinal Answer: 12",
        )
        assert report.risks == ()
        assert report.score == 1.0
        assert report.diagnosis == DIAGNOSIS_OK

    def test_change_event_misinterpretation(self):
        report = semantic_graph_check(
            "Had 10 apples and gave away 3 apples. How many apples are left?",
            "10 + 3 = 13\nFinal Answer: 13",
        )
        assert RISK_CHANGE_EVENT in [risk.category for risk in report.risks]

    def test_change_event_correct_direction_is_silent(self):
        report = semantic_graph_check(
            "Had 10 apples and gave away 3 apples. How many apples are left?",
            "10 - 3 = 7\nFinal Answer: 7",
        )
        assert RISK_CHANGE_EVENT not in [risk.category for risk in report.risks]

    def test_times_more(self):
        report = semantic_graph_check(
            "Tom has 3 times more apples than the 4 Sam has. How many does Tom have?",
            "Clearly the result.\nFinal Answer: 9",
        )
        assert RISK_TIMES_MORE in [risk.category for risk in report.risks]

    def test_times_more_satisfied_by_multiplication(self):
        report = semantic_graph_check(
            "Tom has 3 times more apples than the 4 Sam has. How many does Tom have?",
            "3 * 4 = 12\nFinal Answer: 12",
        )
        assert RISK_TIMES_MORE not in [risk.category for risk in report.risks]

    def test_equally_split(self):
        report = semantic_graph_check(
            "12 candies are split equally among 4 kids. How many does each kid get?",
            "They all get a fair amount.\nFinal Answer: 3",
        )
        assert RISK_EQUALLY_SPLIT in [risk.category for risk in report.risks]

    def test_answer_format_warning(self):
        report = semantic_graph_check(
            "Joe has 2 pens and 3 pencils. How many more pencils than pens does he have?",
            "2 + 3 = 5\nFinal Answer: 5",
        )
        formats = [risk for risk in report.risks if risk.category == "answer_format_warning"]
        assert formats and formats[0].severity == SEVERITY_WARNING

    def test_generation_failure(self):
        report = semantic_graph_check("any problem 3", "")
        assert report.diagnosis == DIAGNOSIS_GENERATION_FAILURE
        assert report.score == 0.0
        assert [risk.category for risk in report.risks] == [RISK_GENERATION_FAILURE]


class TestScoreProperties:
    WORDS = (
        "Tom Sam has gave bought lost 3 4 5 12 bags candies each per more than "
        "fewer total together split equally left remaining apples. How many ? "
        "Final Answer: 7 = + - * /"
    ).split()

    def test_score_bounds_fuzz(self):
        rng = random.Random(7)
        for _ in range(300):
            problem = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 25)))
            trace = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 25)))
            report = semantic_graph_check(problem, trace)
            assert 0.0 <= report.score <= 1.0

    @given(st.text(alphabet="0123456789 +-*/=.,abcApB?\n", max_size=80))
    @settings(max_examples=150)
    def test_score_bounds_hypothesis(self, text):
        report = semantic_graph_check(text, text)
        assert 0.0 <= report.score <= 1.0

    def test_emitted_categories_closed(self):
        rng = random.Random(13)
        for _ in range(200):
            problem = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 20)))
            trace = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 20)))
            report = semantic_graph_check(problem, trace)
            for risk in report.risks:
                assert risk.category in RISK_CATEGORIES
                if risk.category in HIGH_RISK_CATEGORIES:
                    assert risk.severity == SEVERITY_HIGH
                elif risk.category != RISK_QUANTITY_BINDING:
                    assert risk.severity == SEVERITY_WARNING

    def test_determinism(self):
        problem = "Had 10 apples and gave away 3 apples. How many are left?"
        trace = "10 + 3 = 13\nFinal Answer: 13"
        assert semantic_graph_check(problem, trace) == semantic_graph_check(problem, trace)

    def test_more_risks_never_raise_score(self):
        clean = semantic_graph_check(
            "3 bags with 4 candies each. How many candies in all?",
            "3 * 4 = 12\nFinal Answer: 12",
        )
        risky = semantic_graph_check(
            "3 bags with 4 candies each. How many candies in all?",
            "The answer is 7.\nFinal Answer: 7",
        )
        assert len(risky.risks) > len(clean.risks)
        assert risky.score < clean.score


def _report(score, risks=(), diagnosis=DIAGNOSIS_OK):
    from trace_repair.risk_graph import RiskSignal

    return GraphReport(
        risks=tuple(
            RiskSignal(category=category, severity=severity, evidence=())
            for category, severity in risks
        ),
        score=score,
        diagnosis=diagnosis,
    )


class TestGraphGuard:
    def test_passes_when_all_conditions_hold(self):
        assert graph_guard(_report(0.80), _report(0.85), 0.60, 0.05)

    def test_below_minimum_score(self):
        assert not graph_guard(_report(0.80), _report(0.55), 0.60, 0.05)

    def test_drop_tolerance(self):
        assert not graph_guard(_report(0.80), _report(0.70), 0.60, 0.05)
        assert graph_guard(_report(0.80), _report(0.75), 0.60, 0.05)

    def test_high_risk_blocks(self):
        candidate = _report(0.95, risks=((RISK_RATE_MISSING, SEVERITY_HIGH),))
        assert not graph_guard(_report(0.5), candidate, 0.60, 0.05)

    def test_warning_does_not_block_alone(self):
        candidate = _report(0.85, risks=(("comparison_warning", SEVERITY_WARNING),))
        assert graph_guard(_report(0.5), candidate, 0.60, 0.05)

    def test_generation_failure_always_fails(self):
        candidate = _report(0.0, diagnosis=DIAGNOSIS_GENERATION_FAILURE)
        assert not graph_guard(_report(0.0), candidate, 0.60, 0.05)

    def test_empty_trace_fails_guard_end_to_end(self):
        initial = semantic_graph_check("5 and 6", "5 + 6 = 11\nFinal Answer: 11")
        candidate = semantic_graph_check("5 and 6", "")
        assert candidate.score == 0.0
        assert not graph_guard(initial, candidate, 0.60, 0.05)


def _features_of_every_token(tokens):
    """``_token_features`` as a reading of every token: the oracle."""
    words, lowered, _, initial = tokens
    units = [
        word if word.isalpha() and len(word) > 1 and word not in _UNIT_EXCLUSIONS else ""
        for word in lowered
    ]
    return units, list(map(_entity_word, words, initial))


_FEATURE_WORDS = (
    "Tom", "Tom's", "tom", "Ann", "The", "I", "A", "x", "apples", "Apples", "each", "per",
    "3", "4", "12", "$5", "1,000", "1/0", "twelve", "Twelve", ".", "!", "?", "\n",
    "Élan", "Ünal", "ÜBER", "ǅemal", "Σ", "é",
)
_feature_texts = st.lists(
    st.sampled_from(_FEATURE_WORDS) | st.text(min_size=1, max_size=5), max_size=40
).map(" ".join)


def _columns(rows):
    words = [word for word, _ in rows]
    return words, [word.lower() for word in words], [0] * len(rows), [first for _, first in rows]


# Columns outside the tokeniser's alphabet: non-ASCII capitals and marks.
_feature_columns = st.lists(
    st.tuples(st.text(min_size=1, max_size=5), st.booleans()), max_size=30
).map(_columns)
_BINDING_PROBLEM = analyse_problem(
    "Tom has 3 apples, 4 bags and $5. Ann has 1,000 pens and twelve kids for 12 days."
)


def _worded_positions(problem, text):
    """Every ``worded`` list ``_check_quantity_binding`` searches for ``text``."""
    tokens = _tokenize(text)
    searched = []

    def spy(positions, *args):
        searched.append(list(positions))
        return bisect.bisect_left(positions, *args)

    with mock.patch.object(risk_graph, "bisect_left", spy):
        _check_quantity_binding(problem, tokens, _numbers(tokens[1]))
    return tokens, searched


class TestTokenFeaturesOracle:
    @settings(max_examples=200, deadline=None)
    @given(_feature_texts)
    def test_features_of_a_text_match_reading_every_token(self, text):
        tokens = _tokenize(text)
        assert _token_features(tokens) == _features_of_every_token(tokens)

    @settings(max_examples=200, deadline=None)
    @given(_feature_columns)
    def test_features_of_any_columns_match_reading_every_token(self, tokens):
        assert _token_features(tokens) == _features_of_every_token(tokens)

    @settings(max_examples=200, deadline=None)
    @given(_feature_texts)
    def test_worded_positions_match_the_any_comprehension(self, text):
        tokens, searched = _worded_positions(_BINDING_PROBLEM, text)
        expected = [
            position
            for position, pair in enumerate(zip(*_features_of_every_token(tokens)))
            if any(pair)
        ]
        assert all(worded == expected for worded in searched)

    def test_worded_positions_are_searched(self):
        _, searched = _worded_positions(_BINDING_PROBLEM, "So Tom has 3 now. Then 4 Apples!")
        assert searched and searched[0] == [1, 7]


_ALL_CHARACTERS = "".join(map(chr, range(sys.maxunicode + 1)))
# Every character a keyword letter matches under IGNORECASE; a letter not
# named here matches only its two ASCII cases.
_CASES = {"i": "iIıİ", "s": "sSſ"}
_SCAN_WORDS = ("times", "more", "equally", "evenly", "split", "shared", "divided",
               "distributes", "among", "between")
_SPACE = st.sampled_from((" ", "  ", "\t", "\u00a0", "\u2003"))


def _recased(words):
    """Each of ``words`` with every letter drawn from the characters it matches."""
    return st.sampled_from(words).flatmap(
        lambda word: st.tuples(
            *(st.sampled_from(_CASES.get(letter, letter + letter.upper())) for letter in word)
        ).map("".join)
    )


def _joined(*parts):
    return st.tuples(*parts).map("".join)


_PREFIX = st.sampled_from(("", "Ann has ", "Bob saw 4 cats. Ann has ", "€2. "))
_SUFFIX = st.sampled_from(("", " apples.", " than Bob. How many?"))
# Each scan of ``analyse_problem``, and texts it matches.
_SCANS = {"times_more": "_TIMES_MORE_RE", "equal_split": "_EQUAL_SPLIT_RE"}
_SCAN_TEXTS = {
    "times_more": _joined(
        _PREFIX, st.sampled_from(("3", "twelve", "Five", "10", "x")), _SPACE,
        _recased(("times",)), _SPACE, _recased(("more",)), _SUFFIX,
    ),
    "equal_split": _joined(
        _PREFIX, _recased(("split", "shares", "divided", "distributes")), _SPACE,
        st.sampled_from(("", "the 12 pens ", "them, ")), _recased(("equally", "evenly")), _SUFFIX,
    )
    | _joined(
        _PREFIX, _recased(("equally", "evenly")), _SPACE, st.sampled_from(("", "by 3 ", "all ")),
        _recased(("among", "between", "split", "shared", "dividing")), _SUFFIX,
    ),
}
_LOOSE_PROBLEM = st.lists(
    _recased(_SCAN_WORDS) | st.sampled_from(("3 ", " ", ".", "?", "ſ", "ı")) | st.text(max_size=3)
).map("".join)


class _RecordingScan:
    """A compiled pattern's ``search`` that records each text it is asked."""

    def __init__(self, pattern):
        self.pattern, self.searched = pattern, []

    def search(self, text):
        self.searched.append(text)
        return self.pattern.search(text)


def _searched(name, text):
    """The texts ``analyse_problem(text)`` asks the ``name`` scan to search."""
    attribute = _SCANS[name]
    scan = _RecordingScan(getattr(risk_graph, attribute))
    with mock.patch.object(risk_graph, attribute, scan):
        analyse_problem(text)
    return scan.searched


class TestProblemScanGates:
    """``analyse_problem`` runs its "N times more" and equal-split scans only
    on a text that holds their keyword, and every text a scan matches does."""

    @pytest.mark.parametrize("letter", sorted(set("".join(_SCAN_WORDS))))
    def test_the_case_table_names_every_character_a_letter_matches(self, letter):
        matched = set(re.findall(letter, _ALL_CHARACTERS, re.IGNORECASE))
        assert matched == set(_CASES.get(letter, letter + letter.upper()))

    @pytest.mark.parametrize("name", sorted(_SCANS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_the_gate_admits_every_text_the_scan_matches(self, name, data):
        pattern = getattr(risk_graph, _SCANS[name])
        matching = data.draw(_SCAN_TEXTS[name])
        assert pattern.search(matching) and _searched(name, matching) == [matching]
        loose = data.draw(_LOOSE_PROBLEM)
        assert pattern.search(loose) is None or _searched(name, loose) == [loose]

    @pytest.mark.parametrize("name", sorted(_SCANS))
    def test_a_text_without_the_keyword_is_not_scanned(self, name):
        assert _searched(name, "Ann has 3 more apples than Bob. How many in all?") == []

    def test_a_non_ascii_text_is_scanned_for_times_more(self):
        text = "Ann has 3 tımes more apples than Bob."
        assert _searched("times_more", text) == [text]
        assert analyse_problem(text).times_more == ("3 tımes more", Fraction(3))


# RiskSignal, GraphReport and MetaDiagnosis as frozen dataclasses with the
# same names and fields: the oracle for their repr, equality and hash, which
# the diagnose digest reads.
FrozenRisk = dataclasses.make_dataclass(
    "RiskSignal", list(RiskSignal.__annotations__.items()), frozen=True
)
FrozenReport = dataclasses.make_dataclass(
    "GraphReport", list(GraphReport.__annotations__.items()), frozen=True
)
_risk_fields = st.tuples(
    st.sampled_from(RISK_CATEGORIES),
    st.sampled_from((SEVERITY_HIGH, SEVERITY_WARNING)),
    st.lists(st.text(max_size=8), max_size=2).map(tuple),
)
_report_fields = st.tuples(
    st.lists(_risk_fields, max_size=3),
    st.floats(0.0, 1.0),
    st.sampled_from((DIAGNOSIS_OK, DIAGNOSIS_GENERATION_FAILURE)),
)


def _graph_reports(fields):
    risks, score, diagnosis = fields
    return (
        GraphReport(tuple(RiskSignal(*risk) for risk in risks), score, diagnosis),
        FrozenReport(tuple(FrozenRisk(*risk) for risk in risks), score, diagnosis),
    )


class TestRiskTypesAsFrozenDataclasses:
    @settings(max_examples=200, deadline=None)
    @given(_risk_fields, _risk_fields)
    def test_risk_signal_repr_equality_and_hash_match(self, fields, other):
        risk, frozen = RiskSignal(*fields), FrozenRisk(*fields)
        assert repr(risk) == repr(frozen)
        assert hash(risk) == hash(frozen)
        assert risk == RiskSignal(*fields)
        assert (risk == RiskSignal(*other)) == (frozen == FrozenRisk(*other))

    @settings(max_examples=200, deadline=None)
    @given(_report_fields, _report_fields)
    def test_graph_report_repr_equality_and_hash_match(self, fields, other):
        (report, frozen), (other_report, other_frozen) = _graph_reports(fields), _graph_reports(other)
        assert repr(report) == repr(frozen)
        assert hash(report) == hash(frozen)
        assert report == _graph_reports(fields)[0]
        assert (report == other_report) == (frozen == other_frozen)

    def test_fields_cannot_be_set(self):
        report = semantic_graph_check("any problem 3", "")
        with pytest.raises(AttributeError):
            report.score = 1.0
        with pytest.raises(AttributeError):
            report.risks[0].severity = SEVERITY_HIGH
