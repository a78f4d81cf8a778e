"""The answer checker rejects what a wrong enumerator could emit."""

import checks

CYCLE4 = ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_accepts_a_minimal_triangulation_of_the_four_cycle():
    checker = checks.AnswerChecker(*CYCLE4)
    assert checker.check([(0, 2)])
    assert checker.check([(1, 3)])
    assert checker.failures == []


def test_rejects_a_duplicated_answer():
    checker = checks.AnswerChecker(*CYCLE4)
    assert checker.check([(0, 2)])
    assert not checker.check([(2, 0)])
    assert checker.failures == ["duplicate answer"]


def test_rejects_a_fill_that_leaves_a_chordless_cycle():
    checker = checks.AnswerChecker(*CYCLE4)
    assert not checker.check([])
    assert checker.failures == ["input plus fill is not chordal"]


def test_rejects_fill_edges_that_are_input_edges_or_foreign():
    checker = checks.AnswerChecker(*CYCLE4)
    assert not checker.check([(0, 1), (0, 2)])
    assert not checker.check([(0, 9)])
    assert len(checker.failures) == 2


def test_chordality_on_known_graphs():
    def adj(n, edges):
        return checks.adjacency(range(n), edges)

    cycle5 = [(i, (i + 1) % 5) for i in range(5)]
    assert not checks.is_chordal(adj(5, cycle5))
    assert checks.is_chordal(adj(5, cycle5 + [(0, 2), (0, 3)]))
    # A 4-cycle with a pendant triangle is still not chordal.
    assert not checks.is_chordal(adj(6, CYCLE4[1] + [(3, 4), (4, 5), (5, 3)]))
    assert checks.is_chordal(adj(6, [(0, 1), (2, 3)]))


def test_set_digest_ignores_answer_order():
    keys = [checks.answer_key([(0, 2)]), checks.answer_key([(1, 3)])]
    assert checks.set_digest(keys) == checks.set_digest(reversed(keys))
    assert checks.answer_key([(0, 2)]) == checks.answer_key([(2, 0)])
