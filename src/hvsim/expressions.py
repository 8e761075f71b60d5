"""Polynomial expressions over a mutually commuting family of observables.

An expression tree (Leaf / Sum / Product / Scale) evaluates two ways: to a
single Hermitian operator, and to a real number once each distinct leaf has
been assigned a measured value. Keeping both routes separate is what lets the
consistency checkers compare "measure f(A)" against "f(measured A's)".
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    ComplexFactorError,
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidIndexError,
    InvalidTypeError,
    MissingLeafValueError,
    NoncommutingLeavesError,
    NonHermitianError,
)
from .model import whole
from .operators import (
    COMMUTE_TOL,
    HermitianOperator,
    commutator_norm,
    complex_array,
    identity,
    identity_scalar,
    operators_equal,
    pauli,
    reals,
    tensor,
)

EXPRESSION_HERMITICITY_TOL = 1e-10
REAL_FACTOR_TOL = 1e-12


# Nodes are read-only, so the square's shared line expressions stay as built.
class Leaf:
    """A single observable appearing in an expression."""

    __slots__ = ("_op",)

    def __init__(self, op: HermitianOperator):
        if not isinstance(op, HermitianOperator):
            raise InvalidTypeError(f"Leaf expects a HermitianOperator, got {type(op).__name__}")
        self._op = op

    op = property(lambda self: self._op)

    def __repr__(self) -> str:
        return f"Leaf({self.op.label or '?'})"


class _Children:
    __slots__ = ("_children",)

    def __init__(self, *children):
        if not children:
            raise InvalidArgumentError("children",
                                       f"{type(self).__name__} needs at least one child")
        self._children = tuple(_check_node(c) for c in children)

    children = property(lambda self: self._children)


class Sum(_Children):
    __slots__ = ()


class Product(_Children):
    __slots__ = ()


class Scale:
    __slots__ = ("_factor", "_child")

    def __init__(self, factor, child):
        number = complex_array(factor, "factor")
        if number.ndim or not np.isfinite(number):
            raise InvalidArgumentError("factor",
                                       f"factor must be one finite number, got {factor!r}")
        self._factor = complex(number)
        self._child = _check_node(child)

    factor = property(lambda self: self._factor)
    child = property(lambda self: self._child)


def _check_node(node):
    if not isinstance(node, (Leaf, _Children, Scale)):
        raise InvalidTypeError(f"expected an expression node, got {type(node).__name__}")
    return node


def _describe(node) -> str:
    if isinstance(node, Leaf):
        return node.op.label if node.op.label is not None else f"op[{node.op.dim}]"
    if isinstance(node, Sum):
        return "(" + " + ".join(_describe(c) for c in node.children) + ")"
    if isinstance(node, Product):
        return "(" + "*".join(_describe(c) for c in node.children) + ")"
    factor = node.factor
    shown = f"{factor.real:g}" if factor.imag == 0 else f"({factor:g})"
    return f"{shown}*{_describe(node.child)}"


class ObservableExpression:
    """A validated expression: leaves commute pairwise, result is Hermitian.

    `operators` lists the distinct leaves in first-appearance order (two leaf
    nodes count as the same observable when operators_equal says so). The
    HermitianOperator the expression evaluates to is built once, labelled
    describe(), so repeated prediction on the same expression reuses one
    spectral decomposition.
    """

    __slots__ = ("_root", "_operators", "_dim", "_leaf_slots", "_operator", "_max_commutator_norm")

    def __init__(self, root):
        self._root = _check_node(root)
        distinct: list[HermitianOperator] = []
        leaf_slots: dict[int, int] = {}
        self._collect(self._root, distinct, leaf_slots)
        if not distinct:
            raise InvalidArgumentError("root", "expression contains no operator leaves")
        dims = {op.dim for op in distinct}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"expression leaves span several dimensions: {sorted(dims)}"
            )
        self._dim = dims.pop()
        self._max_commutator_norm = 0.0
        for i, a in enumerate(distinct):
            for b in distinct[i + 1:]:
                norm = commutator_norm(a, b)
                self._max_commutator_norm = max(self._max_commutator_norm, norm)
                if norm > COMMUTE_TOL:
                    raise NoncommutingLeavesError(
                        f"leaves {a.label or i} and {b.label or '?'} fail to"
                        f" commute (commutator norm {norm:.3e})"
                    )
        matrix = _eval_matrix(self._root)
        deviation = float(np.linalg.norm(matrix - matrix.conj().T))
        if deviation > EXPRESSION_HERMITICITY_TOL:
            raise NonHermitianError(
                f"expression evaluates to a non-Hermitian matrix"
                f" (deviation {deviation:.3e})"
            )
        self._operators = tuple(distinct)
        self._leaf_slots = leaf_slots
        self._operator = HermitianOperator((matrix + matrix.conj().T) / 2.0, self.describe())

    def _collect(self, node, distinct, leaf_slots):
        if isinstance(node, Leaf):
            if id(node) not in leaf_slots:
                for i, seen in enumerate(distinct):
                    if operators_equal(seen, node.op):
                        leaf_slots[id(node)] = i
                        break
                else:
                    leaf_slots[id(node)] = len(distinct)
                    distinct.append(node.op)
        elif isinstance(node, _Children):
            for child in node.children:
                self._collect(child, distinct, leaf_slots)
        else:
            self._collect(node.child, distinct, leaf_slots)

    # Read-only, so an expression can be shared like the square that holds it.
    root = property(lambda self: self._root)
    operators = property(lambda self: self._operators)
    dim = property(lambda self: self._dim)
    max_commutator_norm = property(lambda self: self._max_commutator_norm)  # largest one checked

    @property
    def matrix(self) -> np.ndarray:
        return self._operator.matrix

    def describe(self) -> str:
        return _describe(self.root)

    @classmethod
    def of(cls, op: HermitianOperator) -> "ObservableExpression":
        return cls(Leaf(op))

    @classmethod
    def of_product(cls, *ops: HermitianOperator) -> "ObservableExpression":
        return cls(Product(*(Leaf(op) for op in ops)))

    @classmethod
    def of_sum(cls, *ops: HermitianOperator) -> "ObservableExpression":
        return cls(Sum(*(Leaf(op) for op in ops)))

    def __repr__(self) -> str:
        return f"ObservableExpression({self.describe()})"


def _eval_matrix(node) -> np.ndarray:
    if isinstance(node, Leaf):
        return node.op.matrix
    if isinstance(node, Sum):
        out = _eval_matrix(node.children[0]).copy()
        for child in node.children[1:]:
            out = out + _eval_matrix(child)
        return out
    if isinstance(node, Product):
        out = _eval_matrix(node.children[0])
        for child in node.children[1:]:
            out = out @ _eval_matrix(child)
        return out
    return node.factor * _eval_matrix(node.child)


def eval_operator(f: ObservableExpression) -> HermitianOperator:
    """The single Hermitian operator the whole expression evaluates to."""
    return f._operator


def _by_leaf(f: ObservableExpression, readings, name: str) -> list:
    """Each distinct leaf's readings, finite reals (reals) named `name`,
    readings[..., k] for f.operators[k]: floats from one row, columns from an
    (N, len(f.operators)) block."""
    readings = reals(readings, name)
    if readings.shape[-1:] != (len(f.operators),):
        raise MissingLeafValueError(f"readings {readings.shape} for {len(f.operators)} leaves")
    return readings.tolist() if readings.ndim == 1 else list(readings.T)


def _walk(f: ObservableExpression, resolved, node=None):
    """Evaluate f's tree, or its subtree at `node`, from the value of each
    distinct leaf, in the order of f.operators: floats, or equal-length
    arrays walked elementwise with the same operations in the same order, so
    each element keeps its bits. It recurses through itself rather than a
    closure, which would hold `resolved` in a reference cycle until the
    garbage collector ran."""
    if node is None:
        node = f.root
    if isinstance(node, Leaf):
        return resolved[f._leaf_slots[id(node)]]
    if isinstance(node, Sum):
        return sum(_walk(f, resolved, c) for c in node.children)
    if isinstance(node, Product):
        out = 1.0
        for c in node.children:
            out *= _walk(f, resolved, c)
        return out
    if abs(node.factor.imag) > REAL_FACTOR_TOL:
        raise ComplexFactorError(
            f"scale factor {node.factor} is not real within {REAL_FACTOR_TOL}"
        )
    return node.factor.real * _walk(f, resolved, node.child)


def eval_real(f: ObservableExpression, values) -> float:
    """Evaluate the expression numerically from one measured value per distinct
    leaf, values[k] for leaf f.operators[k], as in one row of eval_real_block.
    Scale factors must be real within 1e-12."""
    return float(_walk(f, _by_leaf(f, values, "values")))


def eval_real_block(f: ObservableExpression, readings) -> np.ndarray:
    """eval_real for every row of `readings`, an (N, len(f.operators)) array
    whose column k holds leaf f.operators[k]'s values; equal bit for bit."""
    return np.array(_walk(f, _by_leaf(f, readings, "readings")), dtype=float)


class PeresMerminSquare:
    """3x3 grid of two-qubit observables whose row and column products are
    scalar, with the column-3 product carrying the opposite sign.

    Each line is one ObservableExpression, the product of its three cells,
    whose construction checks that the cells commute pairwise and that the
    product is Hermitian. All three row products must equal +I, the first
    two column products +I and the third -I, to 1e-12. `rows` and `cols`
    are the operators the line expressions evaluate to, so each is
    decomposed once per square.
    """

    __slots__ = ("_grid", "_expressions", "_values", "_identity_deviation")

    def __init__(self, grid):
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise InvalidArgumentError("grid", "grid must be 3x3")
        self._grid = grid
        self._expressions = {
            axis: tuple(ObservableExpression.of_product(*line(i)) for i in (1, 2, 3))
            for axis, line in (("row", self.row_operators), ("column", self.column_operators))
        }
        checked = {axis: list(map(_line_value, fs)) for axis, fs in self._expressions.items()}
        self._values = {axis: tuple(v for v, _ in pairs) for axis, pairs in checked.items()}
        self._identity_deviation = max(gap for pairs in checked.values() for _, gap in pairs)
        expected = {"row": (1, 1, 1), "column": (1, 1, -1)}
        if self._values != expected:
            raise InvalidArgumentError(
                "grid", f"row/column products {self.row_values}/{self.col_values} do not show"
                f" the expected parity pattern {expected}"
            )

    # Read-only, as peres_mermin() hands this one square to every caller.
    grid = property(lambda self: self._grid)
    rows = property(lambda self: tuple(map(eval_operator, self._expressions["row"])))
    cols = property(lambda self: tuple(map(eval_operator, self._expressions["column"])))
    row_values = property(lambda self: self._values["row"])
    col_values = property(lambda self: self._values["column"])
    lines = property(lambda self: self._expressions["row"] + self._expressions["column"])
    identity_deviation = property(lambda self: self._identity_deviation)  # max line-check gap

    def row_operators(self, index: int) -> tuple[HermitianOperator, ...]:
        """The three grid cells of row `index` (1-based)."""
        return self.grid[_line_index(index)]

    def column_operators(self, index: int) -> tuple[HermitianOperator, ...]:
        """The three grid cells of column `index` (1-based)."""
        j = _line_index(index)
        return tuple(self.grid[i][j] for i in range(3))

    def row_expression(self, index: int) -> ObservableExpression:
        return self._expressions["row"][_line_index(index)]

    def column_expression(self, index: int) -> ObservableExpression:
        return self._expressions["column"][_line_index(index)]

    def forced_value(self, axis: str, index: int) -> int:
        """The scalar the given line's product is pinned to (+1 or -1)."""
        if axis not in ("row", "column"):
            raise InvalidArgumentError("axis", f"axis must be 'row' or 'column', got {axis!r}")
        return self._values[axis][_line_index(index)]


def _line_index(index: int) -> int:
    """The 0-based position of line `index`. whole refuses a bool, a float or
    a negative index, and any other integer but 1, 2 or 3 raises
    InvalidIndexError, an IndexError."""
    index = whole(index, "index")
    if index not in (1, 2, 3):
        raise InvalidIndexError("index", f"line index must be 1, 2 or 3, got {index}")
    return index - 1


def _line_value(f: ObservableExpression) -> tuple[int, float]:
    """The +1 or -1 that line f's matrix is a multiple of I by, and the gap to it."""
    scalar = identity_scalar(f.matrix)
    value = int(round(scalar))
    if abs(scalar - value) > 1e-12 or value not in (-1, 1):
        raise InvalidArgumentError("grid", f"line product {f.describe()} is {scalar},"
                                   " expected +1 or -1")
    return value, abs(scalar - value)


@functools.cache
def peres_mermin() -> PeresMerminSquare:
    """The standard two-qubit square built from Pauli tensor products, once
    per process: every call returns the same read-only square."""
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    one = identity(2)
    grid = (
        (tensor(one, x, "IX"), tensor(x, one, "XI"), tensor(x, x, "XX")),
        (tensor(y, one, "YI"), tensor(one, y, "IY"), tensor(y, y, "YY")),
        (tensor(y, x, "YX"), tensor(x, y, "XY"), tensor(z, z, "ZZ")),
    )
    return PeresMerminSquare(grid)


@functools.cache
def implications_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Two commuting +-1-valued diagonal observables and a nondegenerate
    diagonal observable that pins both of their values at once, built once
    per process: operators are immutable and cache their decompositions, so
    every call returns the same triple and no call decomposes it again.

    Measuring C (eigenvalues 1..4, all simple) collapses any state onto a
    shared eigenvector of B1 = diag(+1,+1,-1,-1) and B2 = diag(-1,-1,+1,+1),
    so both B values are deducible from the C outcome alone. The interesting
    question is whether the values deduced that way match what direct
    measurement would have produced; the experiments module demos that they
    need not.
    """
    b1 = HermitianOperator(np.diag([1.0, 1.0, -1.0, -1.0]), "B1")
    b2 = HermitianOperator(np.diag([-1.0, -1.0, 1.0, 1.0]), "B2")
    c = HermitianOperator(np.diag([1.0, 2.0, 3.0, 4.0]), "C")
    return b1, b2, c
