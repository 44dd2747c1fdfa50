import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_expression_text

from hobs import ArityError, ExprSyntaxError, NaNInput, compose, parse


class TestParseAndEval:
    def test_identity(self):
        b = parse("x")
        assert b(3.25) == 3.25

    def test_polynomial(self):
        b = parse("x^2 - 1")
        assert b(3.0) == 8.0
        assert b(-1.0) == 0.0

    def test_interval_indicator(self):
        b = parse("ind(-1, 0)")
        assert b(-0.5) == 1.0
        assert b(0.5) == 0.0

    @pytest.mark.parametrize("x,expected", [(-1.0, 1.0), (0.0, 1.0), (-1.0000001, 0.0), (1e-9, 0.0)])
    def test_indicator_closed_boundaries(self, x, expected):
        assert parse("ind(-1, 0)")(x) == expected

    def test_step_boundary_closed_left(self):
        b = parse("step(2)")
        assert b(2.0) == 1.0
        assert b(1.9999999) == 0.0
        assert b(100.0) == 1.0

    def test_min(self):
        assert parse("min(x, 2)")(5.0) == 2.0
        assert parse("min(x, 2)")(-5.0) == -5.0

    def test_max(self):
        assert parse("max(x, 0)")(-3.0) == 0.0

    def test_clamp(self):
        b = parse("clamp(-1, 1)")
        assert b(5.0) == 1.0
        assert b(-5.0) == -1.0
        assert b(0.25) == 0.25

    def test_hand_arithmetic(self):
        # (2-1)^3 + |2| = 1 + 2 = 3
        assert parse("(x-1)^3 + abs(x)")(2.0) == 3.0

    def test_precedence(self):
        assert parse("1 + 2 * x^2")(3.0) == 19.0

    def test_unary_minus(self):
        assert parse("-x")(2.5) == -2.5
        assert parse("-2 + x")(0.0) == -2.0

    def test_scientific_notation(self):
        assert parse("2.5e-1 + x")(0.0) == 0.25
        assert parse(".5 * x")(4.0) == 2.0

    def test_whitespace_insensitive(self):
        assert parse(" x ^ 2-1 ")(2.0) == parse("x^2 - 1")(2.0)

    def test_constant_expression_broadcasts_over_arrays(self):
        xs = np.linspace(-2, 2, 7)
        out = parse("1.5 + 2^2")(xs)
        assert out.shape == xs.shape
        assert np.all(out == 5.5)

    def test_vectorized_matches_scalar(self):
        b = parse("min(abs(x - 1), 2) * step(0) + ind(-1, 1)")
        xs = np.linspace(-3, 3, 101)
        vec = b(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert b(float(x)) == v


class TestErrors:
    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_input_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + 1 )")
        assert err.value.position == 6

    def test_missing_operand(self):
        with pytest.raises(ExprSyntaxError):
            parse("x +")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("x / 2")

    def test_signed_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^-2")

    @pytest.mark.parametrize("text", ["min(x)", "abs(x, 1)", "ind(1)", "clamp(0, 1, 2)"])
    def test_arity(self, text):
        with pytest.raises(ArityError):
            parse(text)

    def test_nan_input_rejected(self):
        with pytest.raises(NaNInput):
            parse("x")(float("nan"))
        with pytest.raises(NaNInput):
            parse("x + 1")(np.array([1.0, float("nan")]))


class TestCompose:
    def test_identity_left_neutral(self):
        b = parse("x^2 - 1")
        c = compose(parse("x"), b)
        for x in (-2.0, 0.5, 3.0):
            assert c(x) == b(x)

    def test_polynomial_substitution(self):
        c = compose(parse("x^2"), parse("x + 1"))
        assert c(2.0) == 9.0
        assert c.source == "compose[x^2 ; x + 1]"

    def test_indicator_after_square(self):
        # 2^2 = 4 is outside [0, 1]
        c = compose(parse("ind(0, 1)"), parse("x^2"))
        assert c(2.0) == 0.0
        assert c(0.5) == 1.0

    @given(st.integers(0, 2**32 - 1), st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_composition_is_exact(self, seed, x):
        rng = np.random.default_rng(seed)
        b = parse(random_expression_text(rng, depth=2))
        c = parse(random_expression_text(rng, depth=2))
        assert compose(b, c)(x) == b(c(x))

    # the array path of the substituted tree, over deeper expressions than
    # the scalar property above: every element bit for bit
    @pytest.mark.parametrize("seed", range(20))
    def test_composition_is_exact_on_a_grid(self, seed):
        rng = np.random.default_rng(seed)
        b = parse(random_expression_text(rng, depth=3))
        c = parse(random_expression_text(rng, depth=3))
        xs = np.linspace(-10, 10, 1000)
        np.testing.assert_array_equal(compose(b, c)(xs), b(c(xs)))


class TestBounds:
    # no division and only unsigned integer powers: every expression is
    # bounded on a bounded interval, so a grid over one gives finite values
    @pytest.mark.parametrize("seed", range(40))
    def test_random_expressions_are_finite_on_a_bounded_grid(self, seed):
        xs = np.linspace(-100.0, 100.0, 2001)
        b = parse(random_expression_text(np.random.default_rng(seed), depth=1 + seed % 5))
        assert np.all(np.isfinite(b(xs))), b.source

    def test_deep_tree_is_finite_on_a_bounded_grid(self):
        b = parse(random_expression_text(np.random.default_rng(123), depth=5))
        assert np.all(np.isfinite(b(np.linspace(-100.0, 100.0, 2001)))), b.source

    def test_power_of_power(self):
        xs = np.linspace(0, 4, 17)
        np.testing.assert_array_equal(parse("(step(2)^1)^2 * x")(xs), np.where(xs >= 2, xs, 0.0))

    @pytest.mark.parametrize("seed", range(15))
    def test_scalar_and_vector_paths_agree_exactly(self, seed):
        # integer powers are evaluated by binary exponentiation so the
        # scalar and array paths perform identical float operations
        rng = np.random.default_rng(seed)
        b = parse(random_expression_text(rng, depth=3))
        xs = np.linspace(-6, 6, 41)
        vec = b(xs)
        for x, v in zip(xs, vec):
            assert b(float(x)) == v


class TestPinnedOutputs:
    # SHA-256 of the language's exact evaluation bits over 300 seeded
    # random expressions (including signed zeros and overflow to +-inf or
    # NaN), and for each composition with the previous expression its
    # evaluation bits.  The package as it was before its expression printer
    # was deleted gives the same digest, so no evaluation bit moved with
    # it.  Any change to a result changes it.
    XS = np.array(
        [0.0, -0.0, 1e300, -1e300, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e-300, 7.25, -7.25]
        + list(np.linspace(-4, 4, 33))
    )
    DIGEST = "d06ef027a268f52faa2ea67b47fce979a8b8fb0daed17968a90f9e3f5bd05180"

    def test_outputs_match_pinned_digest(self):
        h = hashlib.sha256()
        prev = None
        with np.errstate(all="ignore"):
            for seed in range(300):
                b = parse(random_expression_text(np.random.default_rng(seed), depth=1 + seed % 4))
                h.update(b(self.XS).tobytes())
                if prev is not None:
                    c = compose(b, prev)
                    assert c.source == f"compose[{b.source} ; {prev.source}]"
                    h.update(c(self.XS).tobytes())
                prev = b
        assert h.hexdigest() == self.DIGEST
