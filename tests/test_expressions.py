"""Expression trees, their two evaluation routes, and the 3x3 square."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsim import (
    ComplexFactorError,
    DimensionMismatchError,
    HermitianOperator,
    Leaf,
    MissingLeafValueError,
    NoncommutingLeavesError,
    NonHermitianError,
    ObservableExpression,
    PeresMerminSquare,
    Product,
    Scale,
    Sum,
    commutator_norm,
    eval_operator,
    eval_real,
    eval_real_block,
    identity,
    implications_operators,
    pauli,
    peres_mermin,
    random_hermitian,
    tensor,
)


def two_qubit(first, second, label):
    return tensor(pauli(first), pauli(second), label)


# Diagonal, so any tree over them has commuting leaves and, with real scale
# factors, a Hermitian matrix.
DIAGONAL_LEAVES = tuple(HermitianOperator(np.diag(d), label) for d, label in (
    ([1.0, 2.0, 3.0], "A"), ([-1.0, 0.0, 5.0], "B"), ([2.0, 2.0, -7.0], "C")))


def expression_trees():
    """Sum/Product/Scale trees over DIAGONAL_LEAVES, half of them drawn with
    Scale(1j, Scale(-1j, t)) among the nodes: that keeps the matrix Hermitian
    but puts complex factors in the tree."""
    def extend(children, complex_factors):
        many = st.lists(children, min_size=1, max_size=3)
        nodes = [many.map(lambda c: Sum(*c)), many.map(lambda c: Product(*c)),
                 st.builds(Scale, st.floats(-4, 4, allow_nan=False), children)]
        if complex_factors:
            nodes.append(children.map(lambda c: Scale(1j, Scale(-1j, c))))
        return st.one_of(nodes)
    leaves = st.sampled_from(DIAGONAL_LEAVES).map(Leaf)
    return st.one_of(st.recursive(leaves, lambda c: extend(c, False), max_leaves=8),
                     st.recursive(leaves, lambda c: extend(c, True), max_leaves=8))


def has_complex_factor(node) -> bool:
    if isinstance(node, Leaf):
        return False
    if isinstance(node, Scale):
        return node.factor.imag != 0 or has_complex_factor(node.child)
    return any(has_complex_factor(c) for c in node.children)


class TestNodes:
    def test_leaf_requires_operator(self):
        with pytest.raises(TypeError):
            Leaf(np.eye(2))

    def test_sum_and_product_require_children(self):
        with pytest.raises(ValueError):
            Sum()
        with pytest.raises(ValueError):
            Product()

    def test_children_must_be_nodes(self):
        with pytest.raises(TypeError):
            Sum(pauli("z"))
        with pytest.raises(TypeError):
            Scale(2.0, "z")

    def test_leaf_repr_uses_label(self):
        assert repr(Leaf(pauli("z"))) == "Leaf(Z)"


class TestExpressionValidation:
    def test_noncommuting_leaves_rejected(self):
        with pytest.raises(NoncommutingLeavesError):
            ObservableExpression(Sum(Leaf(pauli("x")), Leaf(pauli("z"))))

    def test_mixed_dimensions_rejected(self):
        zz = two_qubit("z", "z", "ZZ")
        with pytest.raises(DimensionMismatchError):
            ObservableExpression(Sum(Leaf(pauli("z")), Leaf(zz)))

    def test_non_hermitian_result_rejected(self):
        # i*X is anti-Hermitian, so the tree is well formed but its value
        # is not an observable.
        with pytest.raises(NonHermitianError):
            ObservableExpression(Scale(1j, Leaf(pauli("x"))))

    def test_matrix_is_read_only(self):
        expr = ObservableExpression.of(pauli("z"))
        with pytest.raises(ValueError):
            expr.matrix[0, 0] = 5.0

    def test_equal_leaves_share_a_slot(self):
        # Two structurally equal operators, built separately, count once.
        a = HermitianOperator(np.diag([1.0, -1.0]))
        b = HermitianOperator(np.diag([1.0, -1.0]))
        expr = ObservableExpression(Sum(Leaf(a), Leaf(b)))
        assert expr.operators == (a,)
        assert eval_real(expr, [3.0]) == 6.0

    def test_labelled_leaves_dedupe_by_label(self):
        expr = ObservableExpression(Product(Leaf(pauli("z")), Leaf(pauli("z"))))
        assert len(expr.operators) == 1

    def test_max_commutator_norm_is_the_largest_the_check_measured(self):
        # I + 1e-11 X commutes with Z to within COMMUTE_TOL, but not exactly.
        nearly_one = HermitianOperator(np.eye(2) + 1e-11 * pauli("x").matrix, "I'")
        expr = ObservableExpression.of_sum(pauli("z"), nearly_one, pauli("z"))
        assert expr.max_commutator_norm == commutator_norm(pauli("z"), nearly_one) > 0.0
        assert ObservableExpression.of(pauli("z")).max_commutator_norm == 0.0


class TestEvalOperator:
    def test_square_of_pauli_is_identity(self):
        expr = ObservableExpression.of_product(pauli("z"), pauli("z"))
        np.testing.assert_allclose(expr.matrix, np.eye(2), atol=1e-15)

    def test_third_column_product_is_minus_identity(self):
        xx = two_qubit("x", "x", "XX")
        yy = two_qubit("y", "y", "YY")
        zz = two_qubit("z", "z", "ZZ")
        expr = ObservableExpression.of_product(xx, yy, zz)
        np.testing.assert_allclose(expr.matrix, -np.eye(4), atol=1e-12)

    def test_product_of_two_equals_minus_the_third(self):
        # XX*YY and -ZZ are the same operator, yet a value assignment has
        # to give them the same number through different leaf values. This
        # operator-level identity is what the parity search trips over.
        xx = two_qubit("x", "x", "XX")
        yy = two_qubit("y", "y", "YY")
        zz = two_qubit("z", "z", "ZZ")
        left = ObservableExpression(Product(Leaf(xx), Leaf(yy)))
        right = ObservableExpression(Scale(-1.0, Leaf(zz)))
        np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-12)

    def test_operator_is_cached(self):
        expr = ObservableExpression.of_sum(pauli("z"), identity(2))
        assert eval_operator(expr) is eval_operator(expr)

    def test_operator_label_mirrors_describe(self):
        expr = ObservableExpression.of_product(pauli("z"), pauli("z"))
        assert eval_operator(expr).label == expr.describe() == "(Z*Z)"

    def test_describe_nested(self):
        z = pauli("z")
        expr = ObservableExpression(
            Scale(2.0, Sum(Leaf(z), Product(Leaf(z), Leaf(z))))
        )
        assert expr.describe() == "2*(Z + (Z*Z))"

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000),
           st.floats(-3, 3, allow_nan=False),
           st.floats(-3, 3, allow_nan=False))
    def test_polynomial_matrix_matches_numpy(self, seed, s, t):
        # s*A + t*A^2 assembled through the tree must equal the same
        # polynomial assembled directly from the matrix.
        rng = np.random.default_rng(seed)
        a = random_hermitian(int(rng.integers(2, 5)), rng)
        expr = ObservableExpression(
            Sum(Scale(s, Leaf(a)), Scale(t, Product(Leaf(a), Leaf(a))))
        )
        direct = s * a.matrix + t * (a.matrix @ a.matrix)
        np.testing.assert_allclose(expr.matrix, direct, atol=1e-10)
        v = float(rng.uniform(-2, 2))
        assert eval_real(expr, [v]) == pytest.approx(s * v + t * v * v)


class TestEvalReal:
    def setup_method(self):
        self.xx = two_qubit("x", "x", "XX")
        self.yy = two_qubit("y", "y", "YY")
        self.expr = ObservableExpression(Product(Leaf(self.xx), Leaf(self.yy)))

    def test_resolves_by_operator_key(self):
        # Value k belongs to leaf f.operators[k], so a caller holding values
        # by operator lays them out in that order.
        by_operator = {self.yy: -1.0, self.xx: 1.0}
        assert self.expr.operators == (self.xx, self.yy)
        assert eval_real(self.expr, [by_operator[op] for op in self.expr.operators]) == -1.0

    def test_missing_leaf_value(self):
        for values in ([1.0], [1.0, 1.0, 1.0], 1.0):
            with pytest.raises(MissingLeafValueError):
                eval_real(self.expr, values)

    def test_shared_label_keeps_distinct_leaves(self):
        # Two different matrices under one label stay two leaves, each with
        # its own value.
        a1 = HermitianOperator(np.diag([1.0, -1.0]), "A")
        a2 = HermitianOperator(np.diag([2.0, 5.0]), "A")
        expr = ObservableExpression.of_sum(a1, a2)
        assert expr.operators == (a1, a2)
        assert eval_real(expr, [1.0, 2.0]) == 3.0

    def test_sum_scale_arithmetic(self):
        z = pauli("z")
        expr = ObservableExpression(
            Sum(Scale(0.5, Leaf(z)), Scale(-2.0, Product(Leaf(z), Leaf(z))))
        )
        assert eval_real(expr, [-1.0]) == pytest.approx(-2.5)

    def test_complex_factor_rejected_at_evaluation(self):
        # (i)(i)X = -X is Hermitian, so construction succeeds, but the
        # numeric route cannot multiply a measured value by i.
        expr = ObservableExpression(Scale(1j, Scale(1j, Leaf(pauli("x")))))
        np.testing.assert_allclose(expr.matrix, -pauli("x").matrix, atol=1e-15)
        with pytest.raises(ComplexFactorError):
            eval_real(expr, [1.0])
        with pytest.raises(ComplexFactorError):
            eval_real_block(expr, np.ones((2, 1)))

    @settings(deadline=None, max_examples=150)
    @given(expression_trees(), st.data())
    def test_block_equals_scalar_bit_for_bit(self, root, data):
        # Each row of the block result carries the bits eval_real gives for
        # that row's leaf readings; a complex factor fails on both routes.
        f = ObservableExpression(root)
        k = len(f.operators)
        rows = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k),
                                  min_size=1, max_size=4))
        if has_complex_factor(root):
            with pytest.raises(ComplexFactorError):
                eval_real(f, rows[0])
            with pytest.raises(ComplexFactorError):
                eval_real_block(f, np.array(rows))
            return
        scalar = np.array([eval_real(f, row) for row in rows])
        block = eval_real_block(f, np.array(rows))
        assert block.dtype == np.float64
        assert block.tobytes() == scalar.tobytes()


class TestPeresMerminSquare:
    def setup_method(self):
        self.square = peres_mermin()

    def test_grid_labels(self):
        labels = [[op.label for op in row] for row in self.square.grid]
        assert labels == [["IX", "XI", "XX"],
                          ["YI", "IY", "YY"],
                          ["YX", "XY", "ZZ"]]

    def test_line_parities(self):
        assert self.square.row_values == (1, 1, 1)
        assert self.square.col_values == (1, 1, -1)

    def test_forced_values(self):
        assert self.square.forced_value("row", 2) == 1
        assert self.square.forced_value("column", 3) == -1
        with pytest.raises(ValueError):
            self.square.forced_value("diagonal", 1)
        with pytest.raises(IndexError):
            self.square.forced_value("row", 0)

    def test_line_accessors(self):
        row = self.square.row_operators(1)
        col = self.square.column_operators(3)
        assert [op.label for op in row] == ["IX", "XI", "XX"]
        assert [op.label for op in col] == ["XX", "YY", "ZZ"]

    def test_line_expressions_evaluate_to_scalars(self):
        for i in (1, 2, 3):
            np.testing.assert_allclose(
                self.square.row_expression(i).matrix, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            self.square.column_expression(3).matrix, -np.eye(4), atol=1e-12)

    def test_all_lines_commute_pairwise(self):
        lines = [self.square.row_operators(i) for i in (1, 2, 3)]
        lines += [self.square.column_operators(j) for j in (1, 2, 3)]
        for line in lines:
            for i, a in enumerate(line):
                for b in line[i + 1:]:
                    assert commutator_norm(a, b) <= 1e-12

    def test_lines_carry_what_their_checks_measured(self):
        assert self.square.lines == tuple(self.square.row_expression(i) for i in (1, 2, 3)) \
            + tuple(self.square.column_expression(j) for j in (1, 2, 3))
        assert self.square.identity_deviation == 0.0
        assert max(f.max_commutator_norm for f in self.square.lines) == 0.0
        # A cell scaled by 1 + 1e-13 leaves row 1 and column 1 that far off +-I.
        grid = [list(row) for row in self.square.grid]
        grid[0][0] = HermitianOperator((1 + 1e-13) * grid[0][0].matrix, "IX'")
        assert PeresMerminSquare(grid).identity_deviation == pytest.approx(1e-13, rel=1e-3)

    def test_line_products_are_the_line_expressions_operators(self):
        for i in (1, 2, 3):
            assert self.square.rows[i - 1] is eval_operator(self.square.row_expression(i))
            assert self.square.cols[i - 1] is eval_operator(self.square.column_expression(i))
        assert self.square.cols[2].label == "(XX*YY*ZZ)"

    def test_grid_must_be_three_by_three(self):
        with pytest.raises(ValueError):
            PeresMerminSquare(self.square.grid[:2])

    def test_noncommuting_line_rejected(self):
        grid = [list(row) for row in self.square.grid]
        grid[0][0] = tensor(pauli("z"), identity(2), "ZI")
        with pytest.raises(NoncommutingLeavesError):
            PeresMerminSquare(grid)

    def test_line_product_off_the_identity_rejected(self):
        # II commutes with every cell, but leaves row 1 with XI*XX = IX.
        grid = [list(row) for row in self.square.grid]
        grid[0][0] = tensor(identity(2), identity(2), "II")
        with pytest.raises(ValueError, match="not a scalar multiple of the identity"):
            PeresMerminSquare(grid)

    def test_line_product_of_another_scalar_rejected(self):
        grid = [list(row) for row in self.square.grid]
        grid[0][0] = HermitianOperator(2 * grid[0][0].matrix, "2IX")
        with pytest.raises(ValueError, match=r"\(2IX\*XI\*XX\) is 2.0, expected \+1 or -1"):
            PeresMerminSquare(grid)

    def test_wrong_parity_pattern_rejected(self):
        # Negating the corner cell flips the row-3 and column-3 products,
        # which moves the odd line to the rows.
        grid = [list(row) for row in self.square.grid]
        grid[2][2] = HermitianOperator(-grid[2][2].matrix, "negZZ")
        with pytest.raises(ValueError, match="parity pattern"):
            PeresMerminSquare(grid)


class TestImplicationsTriple:
    def test_frozen_matrices(self):
        b1, b2, c = implications_operators()
        np.testing.assert_array_equal(np.diag(b1.matrix).real, [1, 1, -1, -1])
        np.testing.assert_array_equal(np.diag(b2.matrix).real, [-1, -1, 1, 1])
        np.testing.assert_array_equal(np.diag(c.matrix).real, [1, 2, 3, 4])
        assert (b1.label, b2.label, c.label) == ("B1", "B2", "C")

    def test_one_read_only_triple_per_process(self):
        triple = implications_operators()
        assert implications_operators() is triple
        for op in triple:
            assert op.spectrum() is op.spectrum()
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 2.0
            with pytest.raises(AttributeError):
                op.label = "Q"

    def test_pairwise_commuting(self):
        b1, b2, c = implications_operators()
        assert commutator_norm(b1, b2) == 0.0
        assert commutator_norm(b1, c) == 0.0
        assert commutator_norm(b2, c) == 0.0

    def test_c_pins_both_b_values(self):
        # C is nondegenerate, so each C outcome sits in a single basis
        # direction and both B values are read off that direction.
        b1, b2, c = implications_operators()
        for k, c_value in enumerate([1.0, 2.0, 3.0, 4.0]):
            e = np.zeros(4)
            e[k] = 1.0
            assert float(c.matrix[k, k].real) == c_value
            assert float(b1.matrix[k, k].real) == [1, 1, -1, -1][k]
            assert float(b2.matrix[k, k].real) == [-1, -1, 1, 1][k]
            np.testing.assert_allclose(c.matrix @ e, c_value * e, atol=1e-15)
