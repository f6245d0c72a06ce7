import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbmchroma.model import (BlockVector, ModelError, ModelInstance,
                             ProbMatrix, QMatrix, build_q, q_hat, q_star,
                             quadratic_form)


class TestProbMatrix:
    def test_rejects_probability_one(self):
        with pytest.raises(ModelError):
            ProbMatrix([[1.0]])

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            ProbMatrix([[0.2, -0.1], [-0.1, 0.2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ModelError):
            ProbMatrix([[0.1, 0.2], [0.3, 0.1]])

    @pytest.mark.parametrize("cls", [ProbMatrix, QMatrix])
    def test_rejects_non_finite_by_name(self, cls):
        for bad in ([[math.nan]], [[0.1, math.nan], [math.nan, 0.1]],
                    [[math.inf]]):
            with pytest.raises(ModelError, match="must be finite"):
                cls(bad)

    def test_entries_read_only(self):
        p = ProbMatrix([[0.5]])
        with pytest.raises(ValueError):
            p.entries[0, 0] = 0.3


class TestBuildQ:
    def test_zero(self):
        assert build_q(ProbMatrix([[0.0]])).entries[0, 0] == 0.0

    def test_half(self):
        q = build_q(ProbMatrix([[0.5]]))
        assert q.entries[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_exponential_probabilities(self):
        p = ProbMatrix([[1 - 1 / math.e, 0.0], [0.0, 1 - 1 / math.e ** 2]])
        q = build_q(p)
        assert np.allclose(q.entries, [[1.0, 0.0], [0.0, 2.0]], atol=1e-14)

    @given(st.lists(st.floats(min_value=0.0, max_value=0.999999),
                    min_size=1, max_size=4))
    def test_round_trip(self, diag):
        k = len(diag)
        p = ProbMatrix(np.diag(diag) if k > 1 else [[diag[0]]])
        q = build_q(p)
        back = -np.expm1(-q.entries)
        assert np.allclose(back, p.entries, rtol=1e-12, atol=1e-300)


class TestQAccessors:
    def test_q_star_ignores_off_diagonal(self):
        assert q_star(QMatrix([[1.0, 3.0], [3.0, 1.0]])) == 1.0

    def test_q_star_scalar(self):
        assert q_star(QMatrix([[0.0]])) == 0.0
        assert q_star(QMatrix([[1.0, 0.0], [0.0, 2.0]])) == 2.0

    def test_q_hat_average(self):
        q = QMatrix([[1.0, 0.0], [0.0, 2.0]])
        assert q_hat(BlockVector([1, 1]), q) == pytest.approx(1.5)
        assert q_hat(BlockVector([3, 1]), q) == pytest.approx(1.25)

    def test_q_hat_zero_vector_is_q_star(self):
        q = QMatrix([[1.0, 0.0], [0.0, 2.0]])
        assert q_hat(BlockVector([0, 0]), q) == 2.0

    def test_q_hat_bounded_by_q_star(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            q = QMatrix(np.diag(rng.uniform(0, 3, k)))
            x = BlockVector(rng.uniform(0, 5, k))
            assert q_hat(x, q) <= q_star(q) + 1e-12

    def test_q_hat_equality_on_argmax_support(self):
        q = QMatrix([[1.0, 0.0], [0.0, 2.0]])
        assert q_hat(BlockVector([0, 4]), q) == pytest.approx(q_star(q))


class TestQuadraticForm:
    def test_examples(self):
        q = QMatrix([[1.0, 3.0], [3.0, 1.0]])
        assert quadratic_form(BlockVector([1, 1]), q) == pytest.approx(8.0)
        assert quadratic_form(BlockVector([0, 0]), q) == 0.0
        ones = QMatrix([[1.0, 1.0], [1.0, 1.0]])
        assert quadratic_form(BlockVector([2, 3]), ones) == pytest.approx(25.0)


class TestBlockVector:
    def test_norm_caches_sum(self):
        x = BlockVector([1.5, 2.5])
        assert x.norm == 4.0

    def test_integer_flag_rejects_fractions(self):
        with pytest.raises(ModelError):
            BlockVector([1.5], integer=True)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            BlockVector([-1.0])

    def test_as_ints(self):
        assert BlockVector.integral([2, 3]).as_ints() == (2, 3)


class TestModelInstance:
    def test_dimension_check(self):
        with pytest.raises(ModelError):
            ModelInstance(BlockVector.integral([3]), ProbMatrix(np.zeros((2, 2))))

    def test_sigma_hint_range(self):
        with pytest.raises(ModelError):
            ModelInstance(BlockVector.integral([3]), ProbMatrix([[0.1]]),
                          sigma_hint=0.3)

    def test_json_round_trip(self, tmp_path):
        m = ModelInstance(BlockVector.integral([4, 3]),
                          ProbMatrix([[0.5, 0.2], [0.2, 0.6]]), sigma_hint=0.1)
        path = tmp_path / "model.json"
        m.save(path)
        data = json.loads(path.read_text())
        assert set(data) == {"k", "sizes", "P", "sigma_hint"}
        m2 = ModelInstance.load(path)
        assert np.array_equal(m2.sizes.values, m.sizes.values)
        assert np.array_equal(m2.probs.entries, m.probs.entries)
        assert m2.sigma_hint == 0.1

    def test_q_is_derived_not_persisted(self, tmp_path):
        m = ModelInstance.gnp(5, 0.5)
        path = tmp_path / "m.json"
        m.save(path)
        assert "Q" not in json.loads(path.read_text())

    def test_expected_edges(self):
        m = ModelInstance(BlockVector.integral([2, 2]),
                          ProbMatrix([[0.5, 0.25], [0.25, 0.0]]))
        # within block 1: 1 pair * .5; across: 4 pairs * .25; block 2: 0
        assert m.expected_edges() == pytest.approx(1.5)
