import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from relq.instance import (
    Instance,
    brute_force_optimum,
    circular_distance,
    evaluate,
    format_instance,
    generate_instance,
    parse_instance,
    scale_instance,
    score_positions,
)


def reference_optimum(inst):
    """Independent exhaustive oracle: pure-python enumeration over all p^n assignments."""
    best = Fraction(-1)
    for pos in itertools.product(range(inst.p), repeat=inst.n):
        val = evaluate(inst, list(pos))
        if val > best:
            best = val
    return best


class TestCircularDistance:
    def test_examples(self):
        assert circular_distance(1, 6, 8) == 3
        assert circular_distance(0, 4, 8) == 4
        assert circular_distance(3, 3, 8) == 0

    def test_symmetry_and_bounds(self):
        random.seed(7)
        for _ in range(300):
            p = 2 * random.randint(1, 40)
            a, b = random.randrange(p), random.randrange(p)
            d = circular_distance(a, b, p)
            assert d == circular_distance(b, a, p)
            assert 0 <= d <= p // 2

    def test_triangle_inequality(self):
        random.seed(8)
        for _ in range(300):
            p = 2 * random.randint(1, 20)
            a, b, c = (random.randrange(p) for _ in range(3))
            assert circular_distance(a, c, p) <= circular_distance(a, b, p) + circular_distance(b, c, p)

    def test_shift_invariance(self):
        random.seed(9)
        for _ in range(200):
            p = 2 * random.randint(1, 20)
            a, b, t = (random.randrange(p) for _ in range(3))
            assert circular_distance((a + t) % p, (b + t) % p, p) == circular_distance(a, b, p)

    def test_rejects_bad_input(self):
        for args, message in (
            ((0, 1, 7), r"^domain size must be a positive even integer, got 7$"),
            ((0, 1, 0), r"^domain size must be a positive even integer, got 0$"),
            ((0, 1, 8.0), r"^domain size must be an integer, got 8\.0$"),
            ((8, 0, 8), r"^labels 8, 0 outside \[0, 8\)$"),
            ((0, -1, 8), r"^labels 0, -1 outside \[0, 8\)$"),
            ((0, 1.0, 8), r"^label must be an integer, got 1\.0$"),
        ):
            with pytest.raises(ValueError, match=message):
                circular_distance(*args)


class TestEvaluate:
    def test_satisfied_equation_scores_one(self):
        inst = Instance(p=8, n=2, equations=[(0, 1, 3)])
        assert evaluate(inst, [1, 4]) == Fraction(1)

    def test_antipodal_slack_scores_zero(self):
        inst = Instance(p=8, n=2, equations=[(0, 1, 0)])
        assert evaluate(inst, [0, 4]) == Fraction(0)

    def test_every_slack_gives_its_term(self):
        # one equation, either direction: the total is the term 1 - 2*y/p of its slack y
        for p in (2, 4, 8, 10):
            for d, x0, x1 in itertools.product(range(p), repeat=3):
                for i, j in ((0, 1), (1, 0)):
                    pos = [x0, x1]
                    y = circular_distance((pos[i] + d) % p, pos[j], p)
                    total = evaluate(Instance(p=p, n=2, equations=[(i, j, d)]), pos)
                    assert isinstance(total, Fraction)
                    assert total == Fraction(p - 2 * y, p)

    def test_term_range_and_breakdown_sum(self):
        # the total is the sum of the one-equation totals, each in [0, 1]
        random.seed(11)
        for _ in range(50):
            p = 2 * random.randint(1, 12)
            n = random.randint(2, 5)
            inst, _ = generate_instance(n, p, random.randint(1, 8), seed=random.randrange(10**6))
            asg = [random.randrange(p) for _ in range(n)]
            terms = [evaluate(Instance(p=p, n=n, equations=[eq]), asg) for eq in inst.equations]
            assert all(0 <= t <= 1 for t in terms)
            assert evaluate(inst, asg) == sum(terms)

    def test_shift_invariance_exact(self):
        random.seed(12)
        for _ in range(50):
            p = 2 * random.randint(1, 10)
            n = random.randint(2, 4)
            inst, _ = generate_instance(n, p, 6, seed=random.randrange(10**6))
            pos = [random.randrange(p) for _ in range(n)]
            t = random.randrange(p)
            shifted = [(x + t) % p for x in pos]
            assert evaluate(inst, pos) == evaluate(inst, shifted)

    def test_batch_scores_match_exact_totals(self):
        random.seed(14)
        for _ in range(30):
            p = 2 * random.randint(1, 12)
            n = random.randint(2, 5)
            inst, _ = generate_instance(n, p, random.randint(0, 8), seed=random.randrange(10**6))
            rows = np.array([[random.randrange(p) for _ in range(n)] for _ in range(20)], dtype=np.int64)
            scores = score_positions(inst, rows)
            assert scores.dtype == np.int64 and scores.shape == (20,)
            for row, score in zip(rows.tolist(), scores.tolist()):
                total = evaluate(inst, row)
                assert Fraction(score, p) == total
                assert score / p == float(total)  # the float e2e averages

    def test_rejects_mismatch(self):
        inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
        with pytest.raises(ValueError):
            evaluate(inst, [0])
        with pytest.raises(ValueError):
            evaluate(inst, [0, 4])
        # a float position is refused, not truncated
        for x in (1.5, 4.0):
            with pytest.raises(ValueError, match="position must be an integer"):
                evaluate(inst, [0, x])


class TestInstance:
    def test_rejects_non_integers(self):
        for p, n, eq in ((4.0, 2, (0, 1, 1)), (4, 2.0, (0, 1, 1)), (4, 2, (0, 1, 1.5)), (4, 2, (0, 1.0, 1))):
            with pytest.raises(ValueError, match="must be an integer"):
                Instance(p=p, n=n, equations=[eq])

    def test_integer_inputs_give_python_ints(self):
        inst = Instance(p=4, n=3, equations=[(0, 1, 2), [1, 2, 3]])
        assert repr(inst) == "Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 3)])"
        as_numpy = Instance(p=np.int64(4), n=np.int64(3), equations=[tuple(np.array([0, 1, 2])), np.array([1, 2, 3])])
        assert repr(as_numpy) == repr(inst)
        assert format_instance(as_numpy) == format_instance(inst)
        assert evaluate(inst, np.array([2, 0, 1])) == evaluate(inst, [2, 0, 1])


class TestBruteForce:
    def test_antipodal_triangle(self):
        # frozen oracle: cyclic triangle with antipodal targets, p=4; the three
        # targets sum to 6 != 0 mod 4 so at most two equations can hold; value 2.
        inst = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])
        asg, val = brute_force_optimum(inst)
        assert val == 2
        assert evaluate(inst, asg) == 2

    def test_planted_instances_score_m(self):
        for seed in range(5):
            inst, hidden = generate_instance(n=4, p=8, m=7, seed=seed, planted=True)
            assert evaluate(inst, hidden) == 7
            _, val = brute_force_optimum(inst)
            assert val == 7

    def test_matches_pure_python_oracle(self):
        random.seed(13)
        for _ in range(12):
            p = random.choice([2, 4, 6])
            n = random.randint(2, 4)
            inst, _ = generate_instance(n, p, random.randint(1, 6), seed=random.randrange(10**6))
            asg, val = brute_force_optimum(inst)
            assert val == reference_optimum(inst)
            assert evaluate(inst, asg) == val

    def test_budget_guard(self):
        inst = Instance(p=1000, n=4, equations=[(0, 1, 0)])
        with pytest.raises(ValueError):
            brute_force_optimum(inst)

    def test_first_variable_pinned(self):
        inst, _ = generate_instance(3, 8, 5, seed=42)
        asg, _ = brute_force_optimum(inst)
        assert asg[0] == 0


class TestScale:
    def test_assignment_value_preserved(self):
        random.seed(14)
        for _ in range(30):
            p = 2 * random.randint(1, 8)
            n = random.randint(2, 4)
            ell = random.randint(1, 9)
            inst, _ = generate_instance(n, p, 5, seed=random.randrange(10**6))
            scaled = scale_instance(inst, ell)
            pos = [random.randrange(p) for _ in range(n)]
            v1 = evaluate(inst, pos)
            v2 = evaluate(scaled, [ell * x for x in pos])
            assert v1 == v2

    def test_optimum_preserved(self):
        inst = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])
        for ell in (2, 3, 5):
            scaled = scale_instance(inst, ell)
            _, val = brute_force_optimum(scaled)
            assert val == 2

    def test_guards(self):
        inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
        with pytest.raises(ValueError):
            scale_instance(inst, 0)
        with pytest.raises(ValueError):
            scale_instance(inst, 10**9)
        # a float factor would make a float domain that format_instance
        # writes as text parse_instance rejects
        for ell in (1.5, 4.0):
            with pytest.raises(ValueError, match="scale factor must be an integer"):
                scale_instance(inst, ell)


class TestGenerate:
    def test_deterministic(self):
        a, ha = generate_instance(4, 8, 6, seed=123, planted=True)
        b, hb = generate_instance(4, 8, 6, seed=123, planted=True)
        assert a == b
        assert ha == hb
        c, _ = generate_instance(4, 8, 6, seed=124, planted=True)
        assert a != c

    def test_no_self_equations(self):
        for seed in range(10):
            inst, _ = generate_instance(5, 6, 12, seed=seed)
            assert all(i != j for i, j, _ in inst.equations)

    def test_rejects_single_variable(self):
        with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
            generate_instance(1, 4, 1, seed=0)

    def test_rejects_out_of_range_seeds(self):
        # a float seed is refused, not truncated to the integer seed it would alias
        for seed in (-1, 2**64, 1.5, np.float64(2.0)):
            with pytest.raises(ValueError, match="seed"):
                generate_instance(3, 4, 2, seed=seed)
        a, _ = generate_instance(3, 4, 2, seed=2**64 - 1)
        assert a.m == 2

    def test_rejects_non_integer_sizes_before_drawing(self, monkeypatch):
        # m = 6.0 used to fail with a TypeError from range(m)
        drawn = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: drawn.append(k) or philox(*a, **k))
        for kwargs in ({"n": 4.0}, {"p": 8.0}, {"m": 6.0}, {"m": np.float64(6)}):
            args = dict({"n": 4, "p": 8, "m": 6}, **kwargs)
            name = next(iter(kwargs))
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                generate_instance(**args, seed=1)
        assert drawn == []

    def test_numpy_integer_sizes_give_the_same_instance(self):
        a = generate_instance(np.int64(4), np.int32(8), np.uint8(6), seed=21, planted=True)
        b = generate_instance(4, 8, 6, seed=21, planted=True)
        assert repr(a) == repr(b)
        assert format_instance(a[0]) == format_instance(b[0])

    def test_rejects_negative_equation_count(self):
        with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
            generate_instance(3, 4, -1, seed=0)
        inst, _ = generate_instance(3, 4, 0, seed=0)
        assert inst.m == 0


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        inst, _ = generate_instance(4, 10, 7, seed=5)
        text = format_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert format_instance(again) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nrelq 1\n4 2 1  # inline\n\n0 1 3\n"
        inst = parse_instance(text)
        assert inst == Instance(p=4, n=2, equations=[(0, 1, 3)])

    def test_bad_header_rejected(self):
        for text, message in (
            ("relq 2\n4 2 0\n", r"^bad header 'relq 2', expected 'relq 1'$"),
            ("", r"^empty instance text$"),
            ("relq 1\n", r"^missing size line$"),
            ("relq 1\n4 2\n", r"^bad size line '4 2'$"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_instance(text)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match=r"^expected 2 equations, found 1$"):
            parse_instance("relq 1\n4 2 2\n0 1 3\n")

    def test_invalid_equation_rejected(self):
        for text, message in (
            ("relq 1\n4 2 1\n0 0 1\n", r"^equation \(0, 0, 1\) relates a variable to itself$"),
            ("relq 1\n3 2 1\n0 1 1\n", r"^domain size must be a positive even integer, got 3$"),
            ("relq 1\n4 0 0\n", r"^variable count must be >= 1, got 0$"),
            ("relq 1\n4 2 1\n0 2 1\n", r"^equation \(0, 2, 1\) references a missing variable$"),
            ("relq 1\n4 2 1\n0 1 4\n", r"^target difference 4 outside \[0, 4\)$"),
            ("relq 1\n4 2 1\n0 1\n", r"^bad equation line '0 1'$"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_instance(text)
