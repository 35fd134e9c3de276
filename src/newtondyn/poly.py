"""Polynomial layer: one sparse polynomial class, plane maps, parsing, and
the root solvers everything else is built on: batched Aberth-Ehrlich,
interval subdivision and total-degree homotopy.

A MultiPoly is a canonical sparse sum of coefficient-times-monomial terms
in any number of variables: one, with complex coefficients, for complex
and rational maps; two, with float coefficients, for plane maps; three for
their projective extension.  The zero polynomial has degree -1.  Values at
scalars or numpy arrays (real or complex) come from one of two paths:
Horner's rule on the dense coefficients for one variable (MultiPoly.horner,
which the complex maps and the root kernels call), and tables of
cumulative powers for more (eval_many).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiPoly",
    "PlaneMap",
    "UniComplexPoly",
    "PolyParseError",
    "eval_many",
    "parse_poly",
    "parse_plane_map",
    "univariate_complex_roots",
    "batched_complex_roots",
    "worker_threads",
    "map_tiles",
    "row_polyval",
    "system_real_roots",
    "total_degree_homotopy",
    "PATH_FINITE",
    "PATH_DIVERGED",
    "PATH_FAILED",
    "complex_poly_to_plane_map",
]


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class MultiPoly:
    """Polynomial in one or more variables with real or complex
    coefficients, stored sparse.

    terms is a tuple of (exponents, coeff) sorted by exponent tuple, one
    exponent per variable.  Every construction sums each exponent's
    coefficients from 0.0 in the order given and drops the exact zeros, so
    no stored coefficient has a -0.0 part.  Coefficients keep their type:
    complex for the polynomials of complex and rational maps, else float.
    A one-variable polynomial also has dense ascending coefficients, which
    Horner evaluation and the root kernels read.
    """

    __slots__ = ("terms", "nvars", "_dense", "_real")

    def __init__(self, terms=(), nvars=None):
        acc = {}
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            e = tuple(map(int, e))
            nvars = nvars or len(e)
            if len(e) != nvars or min(e) < 0:
                raise ValueError(f"exponents must be {nvars} nonnegative integers")
            acc[e] = acc.get(e, 0.0) + (complex(c) if isinstance(c, complex) else float(c))
        self._store(sorted(acc.items()), nvars or 2)

    def _store(self, terms, nvars):
        self.terms = tuple(t for t in terms if t[1] != 0)
        self.nvars, self._dense, self._real = nvars, None, None
        return self

    @classmethod
    def _of(cls, terms, nvars):
        """The polynomial of terms sorted by distinct exponents, none with a
        -0.0 part, less the zeros."""
        return cls.__new__(cls)._store(terms, nvars)

    @classmethod
    def _summed(cls, terms, nvars):
        """MultiPoly(terms, nvars) for terms whose exponents are canonical."""
        acc = {}
        for e, c in terms:
            acc[e] = acc.get(e, 0.0) + c
        return cls._of(sorted(acc.items()), nvars)

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if self.nvars == 1:  # the terms are in exponent order
            return self.terms[-1][0][0] if self.terms else -1
        return max((sum(e) for e, _ in self.terms), default=-1)

    @property
    def has_real_coefficients(self):
        if self._real is None:
            self._real = all(c.imag == 0 for _, c in self.terms)
        return self._real

    @property
    def coefficients(self):
        """Dense ascending coefficients of a one-variable polynomial, 0 where
        no term is stored.  Like the real flag, built on first use and kept:
        so a parsed degree can be refused before any dense array exists."""
        if self._dense is None:
            if self.nvars != 1:
                raise AttributeError("dense coefficients need one variable")
            dense = [0j if any(type(c) is complex for _, c in self.terms) else 0.0]
            dense *= self.degree + 1
            for (k,), c in self.terms:
                dense[k] = c
            self._dense = tuple(dense)
        return self._dense

    @classmethod
    def constant(cls, c, nvars=2):
        return cls([((0,) * nvars, c)], nvars)

    @classmethod
    def variable(cls, index, nvars=2):
        """The variable in exponent slot index: x for 0, y for 1."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index must be below {nvars}")
        return cls([(tuple(int(i == index) for i in range(nvars)), 1.0)], nvars)

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, *exponents):
        return dict(self.terms).get(exponents, 0.0)

    def max_abs_coeff(self):
        return max((abs(c) for _, c in self.terms), default=0.0)

    def eval(self, *point):
        """Value at one coordinate per variable, each a scalar or numpy
        array (real or complex): horner for one variable, else eval_many."""
        if len(point) != self.nvars:
            raise TypeError(f"expected {self.nvars} coordinates, got {len(point)}")
        if self.nvars == 1:
            return self.horner(point[0])
        return eval_many((self,))(*point)[0]

    def horner(self, z):
        """Horner evaluation of a one-variable polynomial on its dense
        coefficients (arrays by row_polyval, 0-d input by the scalar loop);
        real input with real coefficients stays real."""
        coeffs, scalar = self.coefficients, np.ndim(z) == 0
        use_real = self.has_real_coefficients and not np.iscomplexobj(z)
        if not coeffs:
            return 0.0 if scalar else np.zeros(np.shape(z))
        coeffs = [c.real for c in coeffs] if use_real else list(coeffs)
        if not scalar:
            return row_polyval(np.array([coeffs], float if use_real else complex), z)
        out = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            out = out * z + c
        return out

    def diff(self, var=0):
        """Partial derivative with respect to the variable in slot var."""
        return MultiPoly._of([(e[:var] + (e[var] - 1,) + e[var + 1:], 0.0 + c * e[var])
                              for e, c in self.terms if e[var]], self.nvars)

    def compose(self, *polys):
        """Substitute polys, one per variable and all in the same variables."""
        tables = [_power_table(p, max((e[i] for e, _ in self.terms), default=0))
                  for i, p in enumerate(polys)]
        out = MultiPoly((), polys[0].nvars)
        for e, c in self.terms:
            m = tables[0][e[0]]
            for table, k in zip(tables[1:], e[1:]):
                m = m * table[k]
            out = out + m * c
        return out

    def equals(self, other, tol=0.0):
        """Coefficient-wise comparison within an absolute tolerance."""
        a, b = dict(self.terms), dict(other.terms)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in a.keys() | b.keys())

    def __add__(self, other):
        if np.isscalar(other):
            other = MultiPoly.constant(other, self.nvars)
        return MultiPoly._summed(self.terms + other.terms, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of([(e, 0.0 - c) for e, c in self.terms], self.nvars)

    def __sub__(self, other):
        if np.isscalar(other):
            other = MultiPoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return MultiPoly._of([(e, 0.0 + c * other) for e, c in self.terms], self.nvars)
        acc = {}
        for ea, a in self.terms:
            for eb, b in other.terms:
                k = tuple(map(operator.add, ea, eb))
                acc[k] = acc.get(k, 0.0) + a * b
        return MultiPoly._of(sorted(acc.items()), self.nvars)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __repr__(self):
        return f"MultiPoly({list(self.terms)!r}, {self.nvars})"

    # Projective helpers: a plane polynomial and its homogeneous lift

    def homogenize(self, total_degree):
        """The homogeneous polynomial of total_degree in one more variable,
        last, whose chart at that variable = 1 is this one."""
        if total_degree < self.degree:
            raise ValueError("total degree below the polynomial degree")
        return MultiPoly._summed([(e + (total_degree - sum(e),), c) for e, c in self.terms],
                                 self.nvars + 1)

    def shift(self, *d):
        """Multiply by the monomial with exponents d (negative = divide)."""
        return MultiPoly([(tuple(map(operator.add, e, d)), c) for e, c in self.terms],
                         self.nvars)

    @property
    def is_homogeneous(self):
        return len({sum(e) for e, _ in self.terms}) <= 1

    def min_exponents(self):
        return tuple(min((e[i] for e, _ in self.terms), default=0) for i in range(self.nvars))

    def chart(self, axis):
        """Restrict to the affine chart where variable axis is 1; the others
        keep their order."""
        return MultiPoly._summed([(e[:axis] + e[axis + 1:], c) for e, c in self.terms],
                                 self.nvars - 1)


def UniComplexPoly(coefficients=()):
    """One-variable MultiPoly with complex coefficients, given dense in
    ascending order.  The benchmark's checks import this name and read
    .coefficients of what it returns, so it stays."""
    return MultiPoly([((k,), complex(c)) for k, c in enumerate(coefficients)], 1)


def _power_table(v, n):
    """[v^0, v^1, ..., v^n] computed by cumulative multiplication; v is a
    scalar, a numpy array or a MultiPoly."""
    if isinstance(v, MultiPoly):
        table = [MultiPoly.constant(1.0, v.nvars)]
    else:
        table = [1.0 if np.isscalar(v) else np.ones_like(np.asarray(v))]
    for _ in range(n):
        table.append(table[-1] * v)
    return table


def eval_many(polys):
    """(x, y, *more, rows=None) -> tuple of every p in polys, all in two or
    more variables, at the point (x, y, *more), from one table of powers per
    variable; rows, and any coordinate past the polynomials' variables, is
    unused, as in the systems of total_degree_homotopy.  A term is
    c * x^i * y^j times its powers past y, and terms are summed in term
    order.  Each value has the bits of tables sized for p alone, as
    cumulative powers do not depend on the length of the table."""
    n = max((p.nvars for p in polys), default=2)
    tops = [max((e[i] for p in polys for e, _ in p.terms), default=0) for i in range(n)]
    # each term as c, its x and y powers and its powers past y
    terms = [[(c, e[0], e[1], e[2:]) for e, c in p.terms] for p in polys]

    def evaluate(x, y, *more, rows=None):
        xp, yp = _power_table(x, tops[0]), _power_table(y, tops[1])
        higher = more and [_power_table(v, top) for v, top in zip(more, tops[2:])]
        out = []
        for t in terms:
            acc = None
            for c, i, j, rest in t:
                v = c * xp[i] * yp[j]  # one expression, so numpy reuses its temporary
                if rest:
                    for table, k in zip(higher, rest):
                        v = v * table[k]
                acc = v if acc is None else acc + v
            if acc is None:  # the zero polynomial
                point = (x, y, *more)[:n]
                scalar = all(map(np.isscalar, point))
                acc = 0.0 if scalar else np.zeros(np.broadcast(*point).shape)
            out.append(acc)
        return tuple(out)

    return evaluate


@dataclass(frozen=True)
class PlaneMap:
    """Polynomial map of the real plane, components (first, second)."""

    first: MultiPoly
    second: MultiPoly

    def __post_init__(self):
        if self.first.is_zero and self.second.is_zero:
            raise ValueError("plane map must have at least one nonzero component")

    def eval(self, x, y):
        return self.first.eval(x, y), self.second.eval(x, y)

    def jacobian(self):
        """Four partial derivatives ((fx, fy), (gx, gy))."""
        return (
            (self.first.diff(0), self.first.diff(1)),
            (self.second.diff(0), self.second.diff(1)),
        )

    def compose(self, other):
        """self after other, as a PlaneMap."""
        return PlaneMap(
            self.first.compose(other.first, other.second),
            self.second.compose(other.first, other.second),
        )


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar: a sum of terms, each term signs and then a '*'-separated product
# of factors, each factor a number (ASCII digits and '.', with an optional
# exponent like e-3) or a variable with an optional '^' integer power.

_TOKEN = re.compile(r"(?P<num>[0-9.]+(?:[eE][+-]?\d+)?)|(?P<name>\w+)|(?P<op>[-+*^])|\S")


def _token(match, slots):
    """(kind, value, column) of one token: ('num', float), ('var', slot) or
    (op, op); a name must start with a letter."""
    text, col, kind = match.group(), match.start() + 1, match.lastgroup
    if kind == "num":
        try:
            return kind, float(text), col
        except ValueError:
            raise PolyParseError(f"bad number {text!r}", col) from None
    if kind == "name" and text[0].isalpha():
        if text not in slots:
            raise PolyParseError(f"unknown variable {text!r}", col)
        return "var", slots[text], col
    if kind != "op":
        raise PolyParseError(f"unexpected character {text[0]!r}", col)
    return text, text, col


def parse_poly(text, variables=("x", "y")):
    """Parse text like '3*x^2*y - 1.5*y^3 + 2' into a MultiPoly in
    len(variables) variables (one or two), the k-th name in exponent slot k.

    Every token is read before the grammar is checked, so an unreadable
    token is reported ahead of a misplaced one.  A term whose coefficient
    is not finite, as 1e400 or 1e200*1e200 gives, is an error at the
    column of its first factor.
    """
    if len(variables) not in (1, 2) or len(set(variables)) != len(variables):
        raise ValueError("parser supports one or two distinct variable names")
    slots = {name: i for i, name in enumerate(variables)}
    tokens = [_token(m, slots) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise PolyParseError("empty polynomial", 1)
    # state: 'sign' (term start), 'factor' (after '*'), 'var' (after a
    # variable), 'exp' (after '^') or 'term' (after any other factor)
    terms, coeff, exps, state = [], 1.0, [0] * len(variables), "sign"
    for kind, value, col in tokens + [("end", None, len(text) + 1)]:
        if state == "sign" and kind in ("+", "-"):
            coeff = -coeff if kind == "-" else coeff
        elif state in ("sign", "factor"):
            start = col if state == "sign" else start
            if kind == "num":
                coeff, state = coeff * value, "term"
            elif kind == "var":
                slot, state = value, "var"
                exps[slot] += 1
            else:
                raise PolyParseError("expected a number or variable" if kind != "end"
                                     else "dangling sign" if state == "sign"
                                     else "dangling '*'", col)
        elif state == "exp":
            if kind != "num":
                raise PolyParseError("expected integer exponent after '^'", col)
            if not value.is_integer():  # a number has no sign; 1e400 is inf
                raise PolyParseError("exponent must be a nonnegative integer", col)
            exps[slot] += int(value) - 1  # the variable counted 1 already
            state = "term"
        elif kind == "^" and state == "var":
            state = "exp"
        elif kind == "*":
            state = "factor"
        elif kind in ("+", "-", "end"):
            if not math.isfinite(coeff):
                raise PolyParseError("coefficient is not finite", start)
            terms.append((tuple(exps), coeff))
            coeff, exps, state = -1.0 if kind == "-" else 1.0, [0] * len(variables), "sign"
        else:
            raise PolyParseError("expected '*' or end of term", col)
    return MultiPoly(terms, len(variables))


def parse_plane_map(first_text, second_text, variables=("x", "y")):
    return PlaneMap(parse_poly(first_text, variables), parse_poly(second_text, variables))


def complex_poly_to_plane_map(p):
    """Real and imaginary parts of p(x + i*y): p as a PlaneMap of the real plane."""
    q = p.compose(MultiPoly.variable(0) + MultiPoly.variable(1) * 1j)
    return PlaneMap(*(MultiPoly([(e, part(c)) for e, c in q.terms], 2)
                      for part in (np.real, np.imag)))


# ---------------------------------------------------------------------------
# Univariate complex roots: Aberth-Ehrlich or companion seeds + Newton polish.

_ABERTH_ITERS = 60
_ABERTH_RTOL = 1e-14  # bound on every correction of a row, relative to 1 + |z|
_ROOT_POLISH_ROUNDS = 12
_TILE_ROWS = 8192  # rows per root or counterimage tile, sized to stay in cache
_TILE_POINTS = 1 << 16  # points per forward-orbit tile (pixels, samples)
_workers = 1  # threads for the tiles of one threaded map_tiles call


@contextmanager
def worker_threads(n):
    """Run threaded map_tiles tiles on n threads inside the block, restoring
    the previous count on exit; n = 0 means every usable core.  The count
    is process-wide, and outside any block it is 1."""
    global _workers
    n = int(n)
    if n < 0:
        raise ValueError("thread count must be >= 0")
    if n == 0:
        n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    old, _workers = _workers, n
    try:
        yield n
    finally:
        _workers = old


def map_tiles(fn, a, rows=None, threads=False):
    """[fn(tile) for each tile] in order, a tile being a run of rows of a
    along axis 0 (_TILE_POINTS unless given).  With threads, the calling
    thread and a pool take tiles from one queue, on up to worker_threads
    threads and never more than there are tiles, and none starts once one
    has raised; only counterimage batches ask for threads, and nothing their
    tiles call does."""
    rows = rows or _TILE_POINTS
    tiles = [a[k:k + rows] for k in range(0, max(len(a), 1), rows)]
    workers = min(_workers, len(tiles)) if threads else 1
    if workers == 1:
        return [fn(t) for t in tiles]
    out, todo = [None] * len(tiles), iter(range(len(tiles)))
    lock, failed = threading.Lock(), threading.Event()

    def take():
        with lock:
            return None if failed.is_set() else next(todo, None)

    def run():
        for k in iter(take, None):
            try:
                out[k] = fn(tiles[k])
            except BaseException:
                failed.set()
                raise

    # numpy releases the interpreter lock inside its loops, so tiles overlap
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        run()
        for h in helpers:
            h.result()
    return out


def univariate_complex_roots(p, tol=1e-10):
    """All complex roots of p with multiplicity, sorted by (real, imag).

    Eigenvalues of the companion matrix seed a short Newton polish; each
    returned root r satisfies |p(r)| <= tol * (1 + |r|)^deg * max|coeff|.
    """
    if p.degree < 1:
        raise ValueError("root solver needs degree >= 1")
    C = np.array(p.coefficients, dtype=complex)
    # np.roots(C[::-1]) unchecked: eigenvalues, then a zero root per zero low coefficient
    low = int(np.flatnonzero(C)[0])
    A = np.eye(len(C) - 1 - low, k=-1, dtype=complex)
    A[:1] = -C[low:][-2::-1] / C[-1]
    seeds = np.concatenate((np.linalg.eigvals(A), np.zeros(low, complex)))
    roots = _polish_rows(C[None], seeds[None])[0]
    bound = tol * (1.0 + np.abs(roots)) ** p.degree * p.max_abs_coeff()
    resid = np.abs(p.horner(roots))
    if (resid > bound).any():
        worst = float(np.max(resid / np.maximum(bound, 1e-300)))
        raise ArithmeticError(
            f"root polishing failed residual bound (worst ratio {worst:.3g})"
        )
    return [complex(r) for r in np.sort(roots, kind="stable")]


def row_polyval(coeff_rows, z):
    """Evaluate many polynomials at matching points: row k of coeff_rows
    (ascending order) at z[k].  z may also broadcast against extra root
    columns, as in row_polyval(C, roots) with roots shaped (m, d).  One row's
    coefficients are scalars: numpy adds those several times faster."""
    C = np.asarray(coeff_rows)
    if C.ndim != 2 or C.shape[1] == 0:
        raise ValueError("coefficient rows must form a nonempty 2-D array")
    z = np.asarray(z)
    cols = C[0].tolist() if len(C) == 1 else C.T[(slice(None),) * 2 + (None,) * (z.ndim - 1)]
    out = np.full(z.shape, cols[-1], C.dtype)
    for c in cols[-2::-1]:
        out = out * z + c
    return out


def _horner_columns(CT, z):
    """row_polyval's Horner loop in place: each row of CT, ascending, broadcasts against z."""
    out = np.empty_like(z)
    out[...] = CT[-1]
    for c in CT[-2::-1]:
        out *= z
        out += c
    return out


def _aberth_rows(C):
    """Aberth-Ehrlich iteration on all rows of C (ascending, nonzero leading
    coefficients) at once, from circles of radius max_k |a_k/a_d|^(1/(d-k)).
    Returns (roots, converged): a row converges once every correction is
    <= 1e-14 (1 + |z|); a multiple root, as in (z - 1)^3, prevents that.
    A row stops, unconverged, at its first non-finite iterate.  Column-major:
    one row of C per column, so each numpy pass runs over contiguous rows."""
    m, n = C.shape
    d = n - 1
    radius = np.max(np.abs(C[:, :-1] / C[:, -1:]) ** (1.0 / np.arange(d, 0, -1)), axis=1)
    # the angular offset keeps the start off the symmetry axes of real rows
    roots = radius * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.4))[:, None]
    active, z = np.arange(m), roots.copy()
    CT, DT = C.T.copy(), (C[:, 1:] * np.arange(1, n)).T.copy()
    converged = np.zeros(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ABERTH_ITERS):
            w = _horner_columns(CT, z) / _horner_columns(DT, z)
            # s_i = sum over k = 1..d-1 of 1 / (z_i - z_(i-k mod d)), in that order;
            # each pair is inverted once, as 1 / (z_j - z_i) == -(1 / (z_i - z_j))
            inv = {(i, j): 1.0 / (z[i] - z[j]) for i in range(d) for j in range(i)}
            s = np.zeros_like(z)
            for i in range(d):
                for j in ((i - k) % d for k in range(1, d)):
                    if j < i:
                        s[i] += inv[i, j]
                    else:
                        s[i] -= inv[j, i]
            corr = w / (1.0 - w * s)
            z -= corr
            small = np.abs(corr) <= _ABERTH_RTOL * (1.0 + np.abs(z))
            done = np.logical_and.reduce(small, axis=0)
            converged[active[done]] = True
            left = ~done & np.logical_and.reduce(np.isfinite(z), axis=0)
            if not left.all():
                roots[:, active[~left]] = z[:, ~left]
                active, z = active[left], z.compress(left, axis=1)
                CT, DT = CT.compress(left, axis=1), DT.compress(left, axis=1)
            if active.size == 0:
                break
        roots[:, active] = z
    return roots.T.copy(), converged


def _polish_rows(C, roots):
    """Newton polish of roots[k] on row C[k], in place: at most 12 rounds,
    keeping a step only if |p| does not grow.  A row that one round leaves
    bit-for-bit unchanged is at a fixed point and stops.  Column-major, as
    in _aberth_rows; a round starts from the values of p that the last one
    kept."""
    CT, DT = C.T.copy(), (C[:, 1:] * np.arange(1, C.shape[1])).T.copy()
    active, z = np.arange(C.shape[0]), roots.T.copy()
    pv = _horner_columns(CT, z)
    for _ in range(_ROOT_POLISH_ROUNDS):
        dv = _horner_columns(DT, z)
        moved = z - np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
        pm = _horner_columns(CT, moved)
        take = np.abs(pm) <= np.abs(pv)
        polished = np.where(take, moved, z)
        pv = np.where(take, pm, pv)
        bits = np.logical_or.reduce(polished.view(np.uint64) != z.view(np.uint64))
        moving = bits[0::2] | bits[1::2]  # either half of a root's bits moved
        if not moving.all():
            roots[active[~moving]] = polished.compress(~moving, axis=1).T
            if not moving.any():
                return roots
            active = active[moving]
            polished, pv, CT, DT = (a.compress(moving, axis=1) for a in (polished, pv, CT, DT))
        z = polished
    roots[active] = z.T
    return roots


def _tile_roots(C):
    """batched_complex_roots on one tile of rows."""
    roots, converged = _aberth_rows(C)
    stuck = ~converged
    d = C.shape[1] - 1
    comp = np.zeros((np.count_nonzero(stuck), d, d), complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -C[stuck, :-1] / C[stuck, -1:]
    roots[stuck] = np.linalg.eigvals(comp)
    return np.sort(_polish_rows(C, roots), axis=1, kind="stable")


def _row_degrees(C):
    """Each row's degree by MultiPoly.degree's rule, -1 if an entry is not
    finite: passes over the few columns, not reductions along short rows."""
    degs, finite = np.full(len(C), -1), np.ones(len(C), bool)
    for k, col in enumerate(C.T):
        degs[col != 0] = k
        finite &= np.isfinite(col)
    return np.where(finite, degs, -1)


def batched_complex_roots(coeff_rows):
    """Roots of many same-degree polynomials, one ascending coefficient row
    each: Aberth-Ehrlich seeds (companion-matrix eigenvalues for the rows it
    leaves unconverged), then the Newton polish of _polish_rows.

    Every row's leading coefficient must be nonzero (callers group rows by
    _row_degrees).  Rows of roots come back lexicographically sorted by
    (real, imag); no residual bound is enforced here.

    Rows are solved in tiles of _TILE_ROWS, so the iteration's temporaries
    stay in cache, on the calling thread (its callers run inside a forward or
    counterimage tile).  Every row is solved on its own, so the result is
    bit-identical for any number of rows in the call.
    """
    C = np.asarray(coeff_rows, dtype=complex)
    if C.shape[1] < 2:
        raise ValueError("need degree >= 1 rows")
    parts = map_tiles(_tile_roots, C, rows=_TILE_ROWS)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------------
# Real solutions of bivariate systems: box subdivision with interval
# exclusion, leaf centers polished by damped Newton, merged and sorted.

_X_THEN_Y = np.array([[True], [False]])
# levels cached unfiltered, and live boxes that force a test (docs/decisions.md)
_GRID_LEVELS, _BATCH = 10, 512
_LEAF_POLISH_ROUNDS = 60  # damped Newton rounds on each leaf center
_MAX_DEPTH = 60  # bisection levels before live boxes become leaves


def _enclosure(polys):
    """Interval enclosures of polys over boxes, planned once per system:
    enclose(B) takes the bounds of n boxes stacked as the rows [xlo; xhi;
    ylo; yhi] of B and returns each polynomial's [lo; hi], shaped
    (len(polys), 2, n).  It fills one table of bound rows and sums each
    side down a term axis, in term order, after leading zero rows: the
    operations, and their order, of the term-by-term natural interval
    extension, so every bound keeps its bits."""
    exps = sorted({e for p in polys for e, _ in p.terms})
    powers = sorted({k for e in exps for k in e if k >= 2})
    mixed = [(ex, ey) for ex, ey in exps if ex and ey]
    # table rows: 0, then [xlo; xhi; ylo; yhi] of x^k, y^k for k = 0, 1 and
    # each power, then [lo; hi] of each monomial in both variables
    at = {k: 1 + 4 * i for i, k in enumerate([0, 1] + powers)}
    top = 1 + 4 * len(at)

    def rows(ex, ey):  # the (lo, hi) rows of x^ex * y^ey
        r = top + 2 * mixed.index((ex, ey)) if ex and ey else at[ex] if ex else at[ey] + 2
        return r, r + 1

    corner = np.array([[rows(ex, 0) for ex, _ in mixed], [rows(0, ey) for _, ey in mixed]])
    width = 1 + max(len(p.terms) for p in polys)
    pick = np.zeros((width, len(polys), 2), np.intp)  # row 0 is zero, times 1.0
    coef = np.ones((width, len(polys), 2, 1))
    for j, p in enumerate(polys):
        for t, (e, c) in enumerate(p.terms, width - len(p.terms)):
            pick[t, j] = rows(*e)[::1 if c >= 0 else -1]
            coef[t, j] = c
    even = any(k % 2 == 0 for k in powers)

    def enclose(B):
        n = B.shape[1]
        table = np.zeros((top + 2 * len(mixed), n))
        table[1:5] = 1.0
        table[5:9] = B
        if even:  # v ** 2 is np.square(v); lo is 0 where the box holds 0
            a = np.abs(B)
            ordered = np.empty_like(B)  # [min |x|; max |x|; min |y|; max |y|]
            np.minimum(a[0::2], a[1::2], out=ordered[0::2])
            np.maximum(a[0::2], a[1::2], out=ordered[1::2])
            zero = (B[0::2] <= 0.0) & (B[1::2] >= 0.0)
        for k in powers:
            out = table[at[k]:at[k] + 4]
            if k % 2:
                np.power(B, k, out=out)
            else:
                np.square(ordered, out=out) if k == 2 else np.power(ordered, k, out=out)
                np.copyto(out[0::2], 0.0, where=zero)
        if mixed:  # corners [[a, b], [c, d]]; lo is min(min(a, b), min(c, d))
            x, y = table[corner]
            prod = x[:, :, None] * y[:, None]
            out = table[top:].reshape(len(mixed), 2, n)
            np.minimum(*np.minimum(prod[:, :, 0], prod[:, :, 1]).transpose(1, 0, 2), out=out[:, 0])
            np.maximum(*np.maximum(prod[:, :, 0], prod[:, :, 1]).transpose(1, 0, 2), out=out[:, 1])
        terms = table[pick]
        terms *= coef
        # the term axis is outermost, so the sum runs down it one row at a time
        return np.add.reduce(terms, axis=0)

    return enclose


def _solve_2x2(a, b, c, d, f1, f2):
    """Elementwise Cramer solve of [[a, b], [c, d]] (sx, sy) = (f1, f2);
    returns (sx, sy, bad), (sx, sy) meaningless where |det| < 1e-300."""
    det = a * d - b * c
    bad = np.abs(det) < 1e-300
    det = np.where(bad, 1.0, det)
    return (d * f1 - b * f2) / det, (a * f2 - c * f1) / det, bad


def _plane_polys(f, g):
    """(f, g) and its Jacobian [[a, b], [c, d]] as six polynomials."""
    return (f, g, f.diff(0), f.diff(1), g.diff(0), g.diff(1))


def _plane_system(f, g):
    """(f, g) and its Jacobian [[a, b], [c, d]] as (x, y, rows) -> (f, g,
    a, b, c, d), the form total_degree_homotopy takes (rows is unused)."""
    return eval_many(_plane_polys(f, g))


def _newton_polish_batch(system, x, y, max_step):
    """Damped Newton on a batch of seeds; returns the points after
    _LEAF_POLISH_ROUNDS rounds.  A point's rounds depend on that point alone, so
    a point whose round returns its previous iterate (a fixed point) or the
    one before (an exact 2-cycle) stops with the iterate that the remaining
    rounds would end on: the result is bit-for-bit that of all the rounds."""
    p = np.array([x, y], dtype=float)  # row 0 holds x, row 1 holds y
    out, prev, active = p.copy(), p, np.arange(p.shape[1])
    for left in reversed(range(_LEAF_POLISH_ROUNDS)):
        f1, f2, a, b, c, d = system(p[0], p[1])
        sx, sy, bad = _solve_2x2(a, b, c, d, f1, f2)
        norm = np.hypot(sx, sy)
        lim = max_step / np.maximum(norm, max_step)  # 1.0 unless norm > max_step
        new = np.where(bad, p, p - np.array([sx, sy]) * lim)
        bits = new.view(np.uint64)
        fixed = (bits == p.view(np.uint64)).all(0)
        cycle = (bits == prev.view(np.uint64)).all(0)
        # from a 2-cycle, an odd number of rounds left ends on p, not new
        out[:, active] = np.where(cycle & (left % 2 == 1), p, new)
        go = ~(fixed | cycle)
        active, prev, p = active[go], p.compress(go, axis=1), new.compress(go, axis=1)
        if active.size == 0:
            break
    return out[0], out[1]


def _halve(boxes):
    """Boxes cut across their longer side (x on ties): left halves, then right."""
    side = boxes[1::2] - boxes[0::2]  # [width; height]
    mid = 0.5 * (boxes[0::2] + boxes[1::2])
    cut = (side[0] >= side[1]) == _X_THEN_Y  # [cut x; cut y]
    n = boxes.shape[1]
    out = np.concatenate((boxes, boxes), axis=1)
    np.copyto(out[1::2, :n], mid, where=cut)
    np.copyto(out[0::2, n:], mid, where=cut)
    return out


@functools.lru_cache(maxsize=16)
def _grid(box, leaf_side, most):
    """(levels, boxes): box halved `most` times, or up to the first level with a
    leaf-size box, read-only.  box is the bounds' float.hex: -0.0 keys apart."""
    boxes, levels = np.array([[float.fromhex(v)] for v in box]), 0
    while levels < most and not (np.max(boxes[1::2] - boxes[0::2], axis=0) <= leaf_side).any():
        boxes, levels = _halve(boxes), levels + 1
    boxes.flags.writeable = False
    return levels, boxes


def system_real_roots(f, box, tol=1e-10, return_unresolved=False):
    """All regular real solutions of f = 0 in a rectangle, sorted
    lexicographically.

    box is (xmin, xmax, ymin, ymax).  Bisection with an interval exclusion
    test (_enclosure, on all live boxes of a level at once) isolates
    candidate boxes; leaf centers are polished by 60 rounds of damped Newton
    to residual <= tol, stopping early only at an exact fixed point or
    2-cycle; points closer than 10*tol are merged.  Leaf boxes that survive
    exclusion but yield no converged point, and failed boxes that no component's
    non-NaN bound proves empty, are unresolved (returned when return_unresolved is set).
    While its bounds stay finite the enclosure is inclusion-isotone: the test waits for a
    leaf-size box, the last level or over _BATCH boxes, and leaves stay those of a test per level.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in box)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("box must have positive width and height")
    diag0 = math.hypot(xmax - xmin, ymax - ymin)
    leaf_side = max(diag0 / 4096.0, 1e3 * tol)

    # bounds under 2^996 stay finite, so no NaN breaks isotonicity (docs/decisions.md)
    polys, reach = (f.first, f.second), max(1.0, *map(abs, (xmin, xmax, ymin, ymax)))
    scale = sum(abs(c) for p in polys for _, c in p.terms) or 1.0
    defer = math.log2(reach) * max(1, *(p.degree for p in polys)) + math.log2(scale) < 996
    # one box per column; the levels before `first` hold no leaf and skip their test
    key = tuple(map(float.hex, (xmin, xmax, ymin, ymax)))
    first, boxes = _grid(key, leaf_side, min(_GRID_LEVELS, _MAX_DEPTH - 1) if defer else 0)
    enclose = _enclosure(polys)
    leaves, lost = [], []
    for level in range(first, _MAX_DEPTH):
        side = boxes[1::2] - boxes[0::2]  # [width; height]
        small = np.maximum(side[0], side[1]) <= leaf_side
        if not defer or level == _MAX_DEPTH - 1 or boxes.shape[1] > _BATCH or small.any():
            f_lo, f_hi = enclose(boxes).transpose(1, 0, 2)  # (component, box) each
            hold = (f_lo <= 0.0) & (f_hi >= 0.0)
            keep = np.logical_and.reduce(hold)
            if not defer:  # overflow: a failed box no non-NaN bound proves empty is unresolved
                empty = np.logical_or.reduce((f_lo > 0.0) | (f_hi < 0.0))
                lost.append(boxes.compress(~(keep | empty), axis=1))
            boxes, small = boxes.compress(keep, axis=1), small.compress(keep)
        if small.any():
            leaves.append(boxes.compress(small, axis=1))
            boxes = boxes.compress(~small, axis=1)
        if boxes.shape[1] == 0:
            break
        boxes = _halve(boxes)
    if boxes.shape[1]:
        # depth exhausted before reaching leaf size
        leaves.append(boxes)

    points, unresolved = [], []
    if leaves:
        leaves, system = np.hstack(leaves), _plane_system(f.first, f.second)
        lo, hi = leaves[0::2], leaves[1::2]  # [xlo; ylo] and [xhi; yhi]
        px, py = _newton_polish_batch(system, *(0.5 * (lo + hi)), max_step=4.0 * leaf_side)
        pts, margin = np.array([px, py]), 100.0 * tol
        # a kept point is within two leaf sides of its leaf and in the box
        good = ((np.abs(system(px, py)[:2]).max(0) <= tol)
                & ((pts >= lo - 2.0 * (hi - lo)) & (pts <= hi + 2.0 * (hi - lo))).all(0)
                & (pts >= [[xmin - margin], [ymin - margin]]).all(0)
                & (pts <= [[xmax + margin], [ymax + margin]]).all(0))
        points = list(zip(px[good], py[good]))
        unresolved = [tuple(row) for row in leaves[:, ~good].T]
    unresolved += [tuple(row) for part in lost for row in part.T]

    merged = _merge_points(points, 10.0 * tol)
    merged.sort()
    result = [(float(x), float(y)) for x, y in merged]
    if return_unresolved:
        return result, unresolved
    return result


def _merge_points(points, radius):
    """Greedy clustering of nearby points; keeps one representative each."""
    merged = []
    for x, y in sorted(points):
        for k, (mx, my) in enumerate(merged):
            if math.hypot(x - mx, y - my) <= radius:
                merged[k] = (0.5 * (x + mx), 0.5 * (y + my))
                break
        else:
            merged.append((x, y))
    return merged


# ---------------------------------------------------------------------------
# Complex solutions of 2x2 polynomial systems: total-degree homotopy
# continuation, vectorized over the paths of many systems at once.

PATH_FINITE, PATH_DIVERGED, PATH_FAILED = 0, 1, 2

# fixed generic unit complex number of the gamma trick: paths stay regular
# for t < 1 on all but a measure-zero set of systems, deterministically
_GAMMA = complex(math.cos(2.0), math.sin(2.0))
_STEP_MAX = 0.05  # larger steps let paths jump between close solutions
_STEP_MIN = 1e-14
_CORRECTOR_ITERS = 3
_CORRECTOR_RTOL = 1e-4  # bound on the last corrector step, relative to 1 + |w|
_POLISH_ITERS = 5
_DIVERGED_NORM = 1e6
_MAX_STEPS = 400
_CHUNK_PATHS = 1 << 16


def _homotopy(system, x, y, t, rows, d1, d2):
    """H = (1 - t) gamma G + t F at (x, y), its Jacobian, and dH/dt."""
    f1, f2, a, b, c, d = system(x, y, rows)
    s = (1.0 - t) * _GAMMA
    xp = x ** (d1 - 1)
    yp = y ** (d2 - 1)
    g1 = xp * x - 1.0
    g2 = yp * y - 1.0
    return (s * g1 + t * f1, s * g2 + t * f2,
            s * d1 * xp + t * a, t * b, t * c, s * d2 * yp + t * d,
            f1 - _GAMMA * g1, f2 - _GAMMA * g2)


def total_degree_homotopy(system, degrees, targets=1):
    """All isolated complex solutions of `targets` systems F(x, y) = 0.

    system(x, y, rows) returns (f1, f2, a, b, c, d): F and its Jacobian
    [[a, b], [c, d]] at complex arrays x, y, where rows[k] is the target of
    point k (for per-target constants); (d1, d2) = degrees bound the total
    degrees of f1 and f2.  Each root of G = (x^d1 - 1, y^d2 - 1) starts a
    path of H = (1 - t) gamma G + t F, tracked from t = 0 to 1 (Euler
    predictor, Newton corrector, per-path step) and polished on F.

    Returns (x, y, status) shaped (targets, d1*d2).  Each path ends
    PATH_FINITE (reached t = 1), PATH_DIVERGED (|w| passed 1e6: lost to
    infinity) or PATH_FAILED (step size or budget exhausted, or it ended
    within 1e-8 (1 + |w|) of an earlier finite endpoint of its target, as
    a path that jumps onto another does), so the counts of every target
    sum to the Bezout number d1*d2 and no two of its finite endpoints
    coincide.  A path lost to infinity slowly, with |w| growing like
    (1 - t)^(-1/k), cannot pass 1e6 for k >= 3 before t = 1 in double
    precision and ends PATH_FAILED.
    """
    d1, d2 = (max(int(d), 1) for d in degrees)
    kx, ky = np.meshgrid(np.arange(d1), np.arange(d2), indexing="ij")
    x = np.tile(np.exp(2j * np.pi * kx.ravel() / d1), targets)
    y = np.tile(np.exp(2j * np.pi * ky.ravel() / d2), targets)
    rows = np.repeat(np.arange(targets), d1 * d2)
    t = np.zeros(x.size)
    h = np.full(x.size, _STEP_MAX)
    status = np.full(x.size, PATH_FAILED, np.uint8)
    for lo in range(0, x.size, _CHUNK_PATHS):
        chunk = active = np.arange(lo, min(lo + _CHUNK_PATHS, x.size))
        for _ in range(_MAX_STEPS):
            if active.size == 0:
                break
            xa, ya, ta, ra, ha = x[active], y[active], t[active], rows[active], h[active]
            t1 = np.minimum(ta + ha, 1.0)
            # Euler predictor along dw/dt = -H_w^-1 H_t, then Newton at t1
            _, _, a, b, c, d, ht1, ht2 = _homotopy(system, xa, ya, ta, ra, d1, d2)
            vx, vy, bad = _solve_2x2(a, b, c, d, ht1, ht2)
            px, py = xa - (t1 - ta) * vx, ya - (t1 - ta) * vy
            for _ in range(_CORRECTOR_ITERS):
                h1, h2, a, b, c, d, _, _ = _homotopy(system, px, py, t1, ra, d1, d2)
                sx, sy, sing = _solve_2x2(a, b, c, d, h1, h2)
                px, py, bad = px - sx, py - sy, bad | sing
            norm = np.sqrt(np.abs(px) ** 2 + np.abs(py) ** 2)
            last = np.sqrt(np.abs(sx) ** 2 + np.abs(sy) ** 2)
            ok = ~bad & np.isfinite(norm) & (last <= _CORRECTOR_RTOL * (1.0 + norm))
            x[active[ok]], y[active[ok]], t[active[ok]] = px[ok], py[ok], t1[ok]
            h[active] = np.where(ok, np.minimum(2.0 * ha, _STEP_MAX), 0.5 * ha)
            diverged = ok & (norm > _DIVERGED_NORM)
            arrived = ok & ~diverged & (t1 == 1.0)
            status[active[diverged]] = PATH_DIVERGED
            status[active[arrived]] = PATH_FINITE
            active = active[~(diverged | arrived | (h[active] < _STEP_MIN))]
        done = chunk[status[chunk] == PATH_FINITE]
        for _ in range(_POLISH_ITERS):
            f1, f2, a, b, c, d = system(x[done], y[done], rows[done])
            sx, sy, sing = _solve_2x2(a, b, c, d, f1, f2)
            x[done] -= np.where(sing, 0.0, sx)
            y[done] -= np.where(sing, 0.0, sy)
    x, y, status = (v.reshape(targets, d1 * d2) for v in (x, y, status))
    # a path that jumped onto another ends on that path's solution: it
    # fails, so that no target repeats a solution and drops another unseen
    for i in range(1, d1 * d2):
        xi, yi = x[:, i:i + 1], y[:, i:i + 1]
        gap = np.hypot(np.abs(x[:, :i] - xi), np.abs(y[:, :i] - yi))
        near = gap <= 1e-8 * (1.0 + np.hypot(np.abs(xi), np.abs(yi)))
        same = near & (status[:, :i] == PATH_FINITE)
        status[(status[:, i] == PATH_FINITE) & np.any(same, axis=1), i] = PATH_FAILED
    return x, y, status
