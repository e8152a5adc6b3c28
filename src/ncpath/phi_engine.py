"""Exact reconstruction of the sliced kernel's source functional.

After the momentum and intermediate-position Gaussians of the sliced path
sum are integrated out against external sources J (coordinates) and Z
(momenta), what remains is a bilinear-plus-linear exponent

    Φ(J, Z) = (iε/ħ) Q,   Q = (M/2) A - (M/8) Σ_{a,b} μ_a^i D⁻¹_{ab} μ_b^i,

with D the m×m tridiagonal second-difference matrix (det D = m+1, closed
inverse D⁻¹_{ab} = a(m-b+1)/(m+1) for a ≤ b) and μ, A affine in the
sources.  The potential re-enters through derivative operators

    L_a^j = (ħ/iε) ( δ/δJ_a^j + θ^{jl} δ/δZ_a^l ),

so ordering (α) independence of the continuum limit reduces to exact
α-cancellation identities among the first and second source derivatives
of Φ.  Everything here runs in exact rational arithmetic, so those
identities are checked as exact equalities, never against a tolerance.

Block form: Q is real and block-diagonal in the component index, so
`build_phi` stores its second partials as three (m+1)×(m+1) real-Fraction
blocks (JJ, JZ, ZZ) shared by every component (O(m²) work), plus the
linear parts and the constant, which alone carry the boundary points.  The
derivative reports index those blocks; `apply_L` and `apply_L_to_exp` work
on their monomial view `PhiForm.polynomial`.  All four refuse the same
labels (`_check_labels`: integers in range, never a bool); counts, run
parameters, boundary points and θ are read exactly (`_slice_count`,
`_exact`), and a bad one is refused by name.

Index conventions: sources J_a^i, Z_a^i carry slice labels a = 0..m and
components i = 0..N-1; μ is labelled a = 1..m; the slice step is
ε = T/(m+1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class GaussianRational:
    """Exact complex number re + im·i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _as_gr(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gr(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gr(other) - self

    def __mul__(self, other):
        other = _as_gr(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gr(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _as_gr(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"({self.re} + {self.im}i)"


def _as_gr(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


# -- readers and the tridiagonal second-difference matrix --------------------


def _integer(value) -> bool:
    """An int or a NumPy integer, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _slice_count(m, key: str) -> int:
    """A slice count: an integer of at least 1, never a bool."""
    if not _integer(m) or m < 1:
        raise ValueError(f"{key}: need an integer of at least 1 (got {m!r})")
    return int(m)


def _exact(value, key: str) -> Fraction:
    """A number as a Fraction, a float converted exactly; a bool or a
    non-finite float is refused."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Rational):
            return Fraction(int(value.numerator), int(value.denominator))
        if isinstance(value, numbers.Real) and math.isfinite(value):
            return Fraction(float(value))
    raise ValueError(f"{key}: must be a finite number (got {value!r})")


def _positive(value, key: str) -> Fraction:
    number = _exact(value, key)
    if number <= 0:
        raise ValueError(f"{key}: must be positive (got {value!r})")
    return number


def d_det(m: int) -> int:
    """Determinant of the m×m matrix 2δ_ab - δ_{a+1,b} - δ_{a,b+1}: m + 1."""
    return _slice_count(m, "m") + 1


def d_inverse_entry(m: int, a: int, b: int) -> Fraction:
    """Closed-form inverse entry: min(a,b)·(m - max(a,b) + 1)/(m + 1), 1-based."""
    if not (1 <= a <= m and 1 <= b <= m):
        raise ValueError("index out of range for the coupling matrix inverse")
    lo, hi = (a, b) if a <= b else (b, a)
    return Fraction(lo * (m - hi + 1), m + 1)


def dense_d_matrix(m: int):
    """The m×m matrix written out as rows of plain ints.

    Every entry is stored, zeros included, so that the dense oracles
    (`bareiss_determinant`, the audit's product with the closed-form
    inverse) see a general matrix and not the band.
    """
    m = _slice_count(m, "m")
    return [[2 if a == b else (-1 if abs(a - b) == 1 else 0) for b in range(m)]
            for a in range(m)]


def _padded_d_numerators(m: int):
    """The engine's D⁻¹: (m+1)·D⁻¹ as integers on labels 0..m+1, zero outside 1..m.

    `build_phi` and the case table read it; `run_phi_audit` certifies it.
    """
    table = [[0] * (m + 2) for _ in range(m + 2)]
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            table[a][b] = table[b][a] = a * (m - b + 1)
    return table


# -- source polynomials -------------------------------------------------------


class SourcePolynomial:
    """Polynomial in the source variables with GaussianRational coefficients.

    Monomials are sorted tuples of variables ('J'|'Z', slice, component);
    the empty tuple is the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def copy(self):
        return SourcePolynomial(self.terms)

    def add_term(self, monomial, coeff: GaussianRational):
        if not coeff:
            return
        key = tuple(sorted(monomial))
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = self.copy()
        for mono, c in other.terms.items():
            out.add_term(mono, c)
        return out

    def scale(self, factor) -> "SourcePolynomial":
        factor = _as_gr(factor)
        if not factor:
            return SourcePolynomial()
        return SourcePolynomial({m: c * factor for m, c in self.terms.items()})

    def multiply(self, other) -> "SourcePolynomial":
        out = SourcePolynomial()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out.add_term(m1 + m2, c1 * c2)
        return out

    def differentiate(self, var) -> "SourcePolynomial":
        out = SourcePolynomial()
        for mono, c in self.terms.items():
            count = mono.count(var)
            if count:
                reduced = list(mono)
                reduced.remove(var)
                out.add_term(tuple(reduced), c * count)
        return out

    def at_zero(self) -> GaussianRational:
        return self.terms.get((), GR_ZERO)

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def coefficient(self, monomial) -> GaussianRational:
        return self.terms.get(tuple(sorted(monomial)), GR_ZERO)

    def __eq__(self, other):
        return isinstance(other, SourcePolynomial) and self.terms == other.terms

    def __repr__(self):
        return f"SourcePolynomial({len(self.terms)} terms)"


def _const(value) -> SourcePolynomial:
    p = SourcePolynomial()
    p.add_term((), _as_gr(value))
    return p


# -- the exponent itself ------------------------------------------------------


@dataclass(frozen=True)
class PhiContext:
    """Exact run parameters: slice count, duration, ordering index, ħ and M.

    T, α, ħ and M are read as Fractions (`_exact`); T, ħ and M are positive.
    """

    slices_m: int
    total_time: Fraction
    alpha: Fraction
    hbar: Fraction = _ONE
    mass: Fraction = _ONE

    def __post_init__(self):
        # frozen: store each field as read
        object.__setattr__(self, "slices_m", _slice_count(self.slices_m, "slices_m"))
        for key, read in (("total_time", _positive), ("alpha", _exact),
                          ("hbar", _positive), ("mass", _positive)):
            object.__setattr__(self, key, read(getattr(self, key), key))
        if not -_HALF <= self.alpha <= _HALF:
            raise ValueError("alpha: ordering index must lie in [-1/2, 1/2]")

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.total_time, self.slices_m + 1)


class PhiForm:
    """Φ = (iε/ħ)·Q(J, Z) with Q real, stored as real-Fraction blocks.

    Q is block-diagonal in the component index, and its quadratic blocks do
    not depend on the component, so one (m+1)×(m+1) table each holds the
    second partials ∂²Q/∂J_a∂J_b (`jj`), ∂²Q/∂J_a∂Z_b (`jz`) and
    ∂²Q/∂Z_a∂Z_b (`zz`).  `lin_j[a][i]`, `lin_z[a][i]` are the linear
    coefficients and `q0` the value at zero sources.  θ never enters Φ
    itself, only the derivative operators applied to it.
    """

    def __init__(self, ctx: PhiContext, theta, x_f, x_in, jj, jz, zz, lin_j, lin_z, q0):
        self.ctx = ctx
        self.theta = theta
        self.x_f = x_f
        self.x_in = x_in
        self.dim = len(x_f)
        self.jj, self.jz, self.zz = jj, jz, zz
        self.lin_j, self.lin_z, self.q0 = lin_j, lin_z, q0
        # c = -ħ/ε (L's prefactor is ic), c·θ and c·θθᵀ
        c = -ctx.hbar / ctx.epsilon
        self._weights = (
            c,
            [[c * t for t in row] for row in theta],
            [[c * sum((p * q for p, q in zip(r1, r2)), _ZERO) for r2 in theta]
             for r1 in theta],
        )

    @property
    def scale(self) -> Fraction:
        """ε/ħ: Φ = i·scale·Q."""
        return self.ctx.epsilon / self.ctx.hbar

    @property
    def constant(self) -> GaussianRational:
        return GaussianRational(_ZERO, self.scale * self.q0)

    @cached_property
    def polynomial(self) -> SourcePolynomial:
        """Φ as an explicit polynomial in the sources, built on first use."""
        s = self.scale
        terms = {}

        def put(key, value):
            if value:
                terms[key] = GaussianRational(_ZERO, s * value)

        put((), self.q0)
        n = self.ctx.slices_m + 1
        for i in range(self.dim):
            for a in range(n):
                ja, za = ("J", a, i), ("Z", a, i)
                put((ja,), self.lin_j[a][i])
                put((za,), self.lin_z[a][i])
                put((ja, ja), self.jj[a][a] / 2)
                put((za, za), self.zz[a][a] / 2)
                for b in range(n):
                    put((ja, ("Z", b, i)), self.jz[a][b])
                for b in range(a + 1, n):
                    put((ja, ("J", b, i)), self.jj[a][b])
                    put((za, ("Z", b, i)), self.zz[a][b])
        return SourcePolynomial(terms)


def _rational_theta(theta, dim: int):
    """θ as N×N Fractions (`_exact`), N = len(x_f); refuses another shape
    and a θ that is not exactly antisymmetric."""
    if len(theta) != dim or any(len(row) != dim for row in theta):
        raise ValueError(f"theta: need {dim}×{dim} entries, one row and column per "
                         f"component of x_f")
    rows = [[_exact(v, "theta") for v in row] for row in theta]
    for r in range(dim):
        for c in range(dim):
            if rows[r][c] != -rows[c][r]:
                raise ValueError("theta: must be exactly antisymmetric")
    return rows


def build_phi(ctx: PhiContext, theta, x_f, x_in) -> PhiForm:
    """Assemble Φ(J, Z) exactly from its defining blocks.

    The affine forms:
      A = (2/M)(1/2+α) x_f·J_m + (2/M)(1/2-α) x_in·J_0 + Σ_a Z_a·Z_a
          + (2/ε) x_f·Z_m - (2/ε) x_in·Z_0 + (x_f² + x_in²)/ε²,
      μ_a^i = c_a^i + (B s^i)_a,  c_a^i = -(2/ε)(x_in^i δ_{a,1} + x_f^i δ_{a,m}),
      (B s)_a = 2(Z_{a-1} - Z_a) + (2ε/M)[(J_{a-1} + J_a)/2 + α(J_{a-1} - J_a)],
    combined as Φ = (iε/ħ)Q, Q = (M/2) A - (M/8) Σ μ_a D⁻¹_{ab} μ_b.

    Each column of the banded B touches the two rows a = s, s+1, so every
    entry of the quadratic block Bᵀ D⁻¹ B is a sum of four D⁻¹ entries; with
    u = 1+2α, w = 1-2α (the J weights ε u/M, ε w/M) and d_{xy} the padded
    (m+1)·D⁻¹ at (s+x, t+y):
      ∂²Q/∂J_s∂J_t = -ε²/(4M(m+1)) [u² d₁₁ + uw(d₁₀ + d₀₁) + w² d₀₀],
      ∂²Q/∂J_s∂Z_t = -ε/(2(m+1)) [u(d₁₁ - d₁₀) + w(d₀₁ - d₀₀)],
      ∂²Q/∂Z_s∂Z_t = M δ_st - M/(m+1) [d₁₁ - d₁₀ - d₀₁ + d₀₀].
    The linear parts use v = D⁻¹c, which is nonzero on a = 1..m only.

    x_f, x_in and every θ entry are read exactly (`_exact`); x_in must match
    x_f's length and θ be N×N (`_rational_theta`), or the ValueError names
    the field.
    """
    x_f = [_exact(v, "x_f") for v in x_f]
    x_in = [_exact(v, "x_in") for v in x_in]
    if len(x_f) != len(x_in):
        raise ValueError(f"x_in: need {len(x_f)} components, as many as x_f (got {len(x_in)})")
    dim = len(x_f)
    theta_q = _rational_theta(theta, dim)
    m = ctx.slices_m
    n = m + 1
    eps = ctx.epsilon
    M = ctx.mass
    alpha = ctx.alpha
    # u = U/den, w = W/den with integer U, W keep the block sums integral
    den = alpha.denominator
    U = den + 2 * alpha.numerator
    W = den - 2 * alpha.numerator
    u, w = Fraction(U, den), Fraction(W, den)
    d = _padded_d_numerators(m)

    k_jj = -eps * eps / (4 * M * n * den * den)
    k_jz = -eps / (2 * n * den)
    k_zz = -M / n
    jj = [[_ZERO] * n for _ in range(n)]
    jz = [[_ZERO] * n for _ in range(n)]
    zz = [[_ZERO] * n for _ in range(n)]
    for s in range(n):
        row0, row1 = d[s], d[s + 1]
        for t in range(n):
            d00, d01, d10, d11 = row0[t], row0[t + 1], row1[t], row1[t + 1]
            jz[s][t] = k_jz * (U * (d11 - d10) + W * (d01 - d00))
            if t >= s:
                jj[s][t] = jj[t][s] = k_jj * (U * U * d11 + U * W * (d10 + d01) + W * W * d00)
                zz[s][t] = zz[t][s] = k_zz * (d11 - d10 - d01 + d00)
        zz[s][s] += M

    lin_j = [[_ZERO] * dim for _ in range(n)]
    lin_z = [[_ZERO] * dim for _ in range(n)]
    q0 = _ZERO
    for i in range(dim):
        # v_a = (D⁻¹c)_a on a = 0..m+1, using (m+1)·D⁻¹_{a1} = m-a+1, (m+1)·D⁻¹_{am} = a
        v = [-2 * (x_in[i] * (m - a + 1) + x_f[i] * a) / (eps * n) if 1 <= a <= m else _ZERO
             for a in range(n + 1)]
        for s in range(n):
            lin_j[s][i] = -eps / 4 * (u * v[s + 1] + w * v[s])
            lin_z[s][i] = -M / 2 * (v[s + 1] - v[s])
        lin_j[m][i] += u * x_f[i] / 2
        lin_j[0][i] += w * x_in[i] / 2
        lin_z[m][i] += M * x_f[i] / eps
        lin_z[0][i] -= M * x_in[i] / eps
        q0 += (M / 2 * (x_f[i] * x_f[i] + x_in[i] * x_in[i]) / (eps * eps)
               + M / 4 / eps * (x_in[i] * v[1] + x_f[i] * v[m]))
    return PhiForm(ctx, theta_q, x_f, x_in, jj, jz, zz, lin_j, lin_z, q0)


# -- derivative operators -----------------------------------------------------


def _check_labels(phi: PhiForm, slices, components):
    """Slice labels 0..m and components 0..N-1, each an int or a NumPy
    integer, never a bool; `type(x) is int` passes a plain int at once."""
    m = phi.ctx.slices_m
    if not all((type(a) is int or _integer(a)) and 0 <= a <= m for a in slices):
        raise ValueError(f"slice label: need an integer from 0 to {m} (got {slices!r})")
    if not all((type(i) is int or _integer(i)) and 0 <= i < phi.dim for i in components):
        raise ValueError(f"component: need an integer from 0 to {phi.dim - 1} "
                         f"(got {components!r})")


def _apply_l_once(poly: SourcePolynomial, phi: PhiForm, a: int, i: int) -> SourcePolynomial:
    _check_labels(phi, (a,), (i,))
    out = poly.differentiate(("J", a, i))
    for l in range(phi.dim):
        t = phi.theta[i][l]
        if t:
            out = out + poly.differentiate(("Z", a, l)).scale(t)
    return out.scale(GaussianRational(_ZERO, phi._weights[0]))


def apply_L(phi: PhiForm, indices) -> SourcePolynomial:
    """Successive source derivatives L_{a1}^{i1} ⋯ acting on Φ itself.

    Because Φ is at most bilinear, three or more factors acting on one Φ
    give the zero polynomial exactly.
    """
    if not indices:
        raise ValueError("indices: need at least one derivative")
    poly = phi.polynomial
    for a, i in indices:
        poly = _apply_l_once(poly, phi, a, i)
    return poly


def apply_L_to_exp(phi: PhiForm, indices) -> GaussianRational:
    """Value at J=Z=0 of L_{a1} ⋯ L_{ar} e^Φ, with e^{Φ(0)} factored out.

    Maintains the prefactor polynomial P in (L(P e^Φ)) = (L P + P · LΦ) e^Φ;
    the result reproduces the pairing (cumulant) expansion over first and
    second derivatives of Φ.
    """
    prefactor = _const(GR_ONE)
    for a, i in indices:
        prefactor = _apply_l_once(prefactor, phi, a, i) \
            + prefactor.multiply(_apply_l_once(phi.polynomial, phi, a, i))
    return prefactor.at_zero()


@dataclass
class FirstDerivativeReport:
    """L_a^i Φ at zero sources, split by derivative route.

    coordinate_route: the δ/δJ part — exactly the α-weighted point of the
    straight-line path between the endpoints (a pure rational, no ε).
    momentum_route: the θ·δ/δZ part — exactly (M/T) θ^{ij}(x_f - x_in)^j,
    identical for every slice label a.
    """

    slice_label: int
    component: int
    coordinate_route: GaussianRational
    momentum_route: GaussianRational

    @property
    def total(self) -> GaussianRational:
        return self.coordinate_route + self.momentum_route


def first_derivative_report(phi: PhiForm, a: int, i: int) -> FirstDerivativeReport:
    # (ħ/iε)·(iε/ħ) = 1: both routes are read off Q's linear part directly
    _check_labels(phi, (a,), (i,))
    lin_z = phi.lin_z[a]
    mom = sum((t * lin_z[l] for l, t in enumerate(phi.theta[i]) if t), _ZERO)
    return FirstDerivativeReport(a, i, GaussianRational(phi.lin_j[a][i]), GaussianRational(mom))


@dataclass
class SecondDerivativeReport:
    """The four pieces of L_a^i L_b^j Φ at zero sources.

    jj: (ħ/iε)² δ²Φ/δJ_a^i δJ_b^j
    zz: (ħ/iε)² θ^{ik} θ^{jl} δ²Φ/δZ_a^k δZ_b^l
    jz: (ħ/iε)² θ^{jl} δ²Φ/δJ_a^i δZ_b^l
    zj: (ħ/iε)² θ^{il} δ²Φ/δJ_b^j δZ_a^l
    The jz and zj pieces are individually α-dependent; their sum is not.
    """

    jj: GaussianRational
    zz: GaussianRational
    jz: GaussianRational
    zj: GaussianRational

    @property
    def jz_plus_zj(self) -> GaussianRational:
        return self.jz + self.zj

    @property
    def total(self) -> GaussianRational:
        return self.jj + self.zz + self.jz + self.zj


def second_derivative_report(phi: PhiForm, a: int, b: int, i: int, j: int) -> SecondDerivativeReport:
    # (ħ/iε)²·(iε/ħ) = -iħ/ε times the real second partials of Q; Q is
    # block-diagonal in the component, so each piece is one block entry
    _check_labels(phi, (a, b), (i, j))
    c, c_theta, c_theta_sq = phi._weights
    w_zz, w_jz, w_zj = c_theta_sq[i][j], c_theta[j][i], c_theta[i][j]
    # a vanishing weight (θ is sparse) skips its Fraction product
    return SecondDerivativeReport(
        GaussianRational(_ZERO, c * phi.jj[a][b] if i == j else _ZERO),
        GaussianRational(_ZERO, w_zz * phi.zz[a][b] if w_zz else _ZERO),
        GaussianRational(_ZERO, w_jz * phi.jz[a][b] if w_jz else _ZERO),
        GaussianRational(_ZERO, w_zj * phi.jz[b][a] if w_zj else _ZERO))


# -- limit and audit ----------------------------------------------------------


def midslice_limit_check(m: int, T) -> tuple:
    """The diagonal coordinate-coordinate coefficient surviving the limit.

    At the middle slice a = m/2 the finite-m value ε²[4a(m-a) + m] equals
    T²·m/(m+1) exactly, so it tends to T² ≠ 0 as the slicing refines; the
    exact gap to T² is T²/(m+1).  Requires even m and T > 0.
    """
    m = _slice_count(m, "m")
    if m % 2:
        raise ValueError("m: the middle slice needs an even slice count")
    T = _positive(T, "total_time")
    eps = Fraction(T, m + 1)
    a = m // 2
    value = eps * eps * (4 * a * (m - a) + m)
    error = abs(value - T * T)
    return value, error


@dataclass
class AuditRow:
    name: str
    passed: bool
    detail: str


@dataclass
class AuditReport:
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)


def bareiss_determinant(matrix) -> Fraction:
    """Exact determinant of a square matrix by fraction-free elimination.

    The audit's general dense oracle for det D = m + 1: it uses no
    structure of the matrix.  Entries may be anything `Fraction()`
    takes exactly (ints, Fractions, floats).  Each row with a non-int
    entry is scaled to integers by the lcm of its denominators, and the
    determinant of the integer matrix is divided by the product of those
    lcms.  Step k updates each row below the pivot that is nonzero in the
    pivot column with one sweep over the pivot row's tail,
    (v·p − f·w) // prev, which Bareiss's identity makes exact.  A row with
    a 0 there would only be scaled by p/prev; such scalings telescope, so
    the row is scaled once, when it is next used, and its zero entries are
    skipped.  A zero pivot is swapped with the first row below it that is
    nonzero in the pivot column; if there is none the determinant is 0.
    The 0×0 matrix has determinant 1.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix: need a square matrix, got {n} rows of lengths "
                         f"{sorted({len(row) for row in a})}")
    if not n:
        return Fraction(1)
    denominator = 1
    for r, row in enumerate(a):
        if not all(type(v) is int for v in row):
            row = [Fraction(v) for v in row]
            scale = math.lcm(*(v.denominator for v in row))
            a[r] = [v.numerator * (scale // v.denominator) for v in row]
            denominator *= scale
    # a[r] holds row r as it stood before step seen[r]; divisors[k] is the
    # divisor of step k (the pivot of step k - 1, and 1 at step 0)
    sign, divisors, seen = 1, [1], [0] * n

    def catch_up(r, k):
        s = seen[r]
        if s < k:
            a[r][k:] = [v * divisors[k] // divisors[s] if v else 0 for v in a[r][k:]]
            seen[r] = k

    for k in range(n - 1):
        if a[k][k] == 0:  # a row not caught up is a nonzero multiple of its current values
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            seen[k], seen[pivot] = seen[pivot], seen[k]
            sign = -sign
        catch_up(k, k)
        p, tail, prev = a[k][k], a[k][k + 1:], divisors[k]
        for r in range(k + 1, n):
            if a[r][k]:
                catch_up(r, k)
                row = a[r]
                f = row[k]
                row[k + 1:] = [(v * p - f * w) // prev for v, w in zip(row[k + 1:], tail)]
                seen[r] = k + 1
        divisors.append(p)
    catch_up(n - 1, n - 1)
    return Fraction(sign * a[-1][-1], denominator)


def _coordinate_coordinate_case(d, m: int, a: int, b: int, alpha: Fraction) -> Fraction:
    """Closed-form bracket of the coordinate-coordinate second derivative.

    Derived from the direct double sum over D⁻¹, read from the padded table
    d = (m+1)·D⁻¹; the off-diagonal cases carry a -α²/(m+1) term on top of
    the printed endpoint/diagonal structure.
    """
    half = _HALF
    if a > b:
        a, b = b, a
    if a == b == 0:
        return Fraction(m, m + 1) * (half + alpha) ** 2
    if a == b == m:
        return Fraction(m, m + 1) * (half - alpha) ** 2
    if a == b:
        return Fraction(1, m + 1) * (
            Fraction(4 * a * (m - a) + m, 4) + alpha * (m - 2 * a) + m * alpha * alpha)
    wa, wb = half + alpha, half - alpha
    return (wa * wa * d[a + 1][b + 1] + wa * wb * (d[a + 1][b] + d[a][b + 1])
            + wb * wb * d[a][b]) / (m + 1)


def run_phi_audit(m: int, sample_alphas, dim: int = 2,
                  theta_value=Fraction(1, 10), total_time=_ONE) -> AuditReport:
    """Full identity audit for one slice count: the CLI's pass/fail table.

    Checks the coupling-matrix closed forms against exact dense oracles
    (det D by Bareiss elimination; the padded table (m+1)·D⁻¹ that
    `build_phi` reads, by its integer product with the dense D) and the
    surviving midslice limit.  Then one Φ per sampled α, on θ^{01} =
    theta_value and fixed rational boundary points, certifies in exact
    arithmetic what depends on α and what does not, across every slice-label
    pair (a, b):
      - the momentum route of L_aΦ|₀ is α-independent and equals (M/T)θΔx;
      - the coordinate route's α-variation is exactly (Δα/(m+1))(x_f - x_in),
        a contribution that dies with the slicing;
      - zz parts and the jz+zj totals are exactly α-independent, with
        jz+zj = 0 on the diagonal a = b;
      - the unsummed jz part genuinely varies with α for some (a, b):
        the cancellation is between terms, not an absence of terms;
      - the coordinate-coordinate part matches its closed-form case table.
    """
    if dim < 2:
        raise ValueError("dim: the audit needs at least two dimensions (θ vanishes in one)")
    alphas = list(dict.fromkeys(_exact(a, "sample_alphas") for a in sample_alphas))
    if len(alphas) < 3:
        raise ValueError("sample_alphas: need at least three distinct values")
    rows = []
    T = _positive(total_time, "total_time")
    n = m + 1

    dmat = dense_d_matrix(m)
    det_ok = d_det(m) == bareiss_determinant(dmat)
    rows.append(AuditRow("determinant closed form", det_ok,
                         f"det = {d_det(m)} (= m + 1)"))

    # D times the table is (m+1)·I in ints; the dense rows are banded, so
    # each sum runs over a row's nonzero entries only
    d = _padded_d_numerators(m)
    inv_ok = True
    for a, row in enumerate(dmat, start=1):
        band = [(c, v) for c, v in enumerate(row, start=1) if v]
        inv_ok = inv_ok and all(sum(v * d[c][b] for c, v in band) == (n if a == b else 0)
                                for b in range(1, n))
    rows.append(AuditRow("inverse closed form", inv_ok,
                         "product with the dense matrix is the identity, exactly"))

    if m % 2 == 0:
        value, error = midslice_limit_check(m, T)
        limit_ok = value == T * T * Fraction(m, m + 1) and error == T * T / (m + 1)
        detail = f"value {value}, gap to T² is {error}"
    else:
        value, error = midslice_limit_check(m + 1, T)
        limit_ok = value == T * T * Fraction(m + 1, m + 2)
        detail = f"checked at even slice count {m + 1}: value {value}"
    rows.append(AuditRow("surviving midslice coefficient", limit_ok, detail))

    x_f, x_in = [Fraction(3, 2)] * dim, [Fraction(-2, 3)] * dim
    theta = [[_ZERO] * dim for _ in range(dim)]
    theta[0][1] = _exact(theta_value, "theta_value")
    theta[1][0] = -theta[0][1]
    forms = {al: build_phi(PhiContext(m, T, al), theta, x_f, x_in) for al in alphas}
    base = alphas[0]
    ctx = forms[base].ctx
    M, hbar = ctx.mass, ctx.hbar

    mom_ok = coord_ok = True
    for i in range(dim):
        expected_mom = GaussianRational(
            M * sum((theta[i][l] / T * (x_f[l] - x_in[l]) for l in range(dim)), _ZERO))
        for a in range(n):
            reports = {al: first_derivative_report(phi, a, i) for al, phi in forms.items()}
            for al, rep in reports.items():
                expected_delta = GaussianRational((al - base) * (x_f[i] - x_in[i]) / n)
                mom_ok = mom_ok and rep.momentum_route == expected_mom
                coord_ok = coord_ok and (rep.coordinate_route - reports[base].coordinate_route
                                         == expected_delta)
    rows.append(AuditRow("first-derivative momentum route", mom_ok,
                         "equals (M/T)·θ·(x_f - x_in) for every slice and α"))
    rows.append(AuditRow("first-derivative coordinate route", coord_ok,
                         "α-variation is exactly (Δα/(m+1))·(x_f - x_in)"))

    # each (0,0) and (0,1) report is built once and read by every row below
    expected_zz = {(i, j): GaussianRational(
        _ZERO, -M * hbar * sum((theta[i][k] * theta[j][k] for k in range(dim)), _ZERO) / T)
        for i, j in ((0, 0), (0, 1))}
    jj_scale = hbar * ctx.epsilon / M
    zz_ok = sum_ok = jj_ok = True
    jz_varies = False
    for a in range(n):
        for b in range(n):
            for (i, j), zz in expected_zz.items():
                expected_sum = GR_ZERO if a == b else GaussianRational(
                    _ZERO, (1 if a < b else -1) * hbar * theta[i][j] * Fraction(n - abs(a - b), n))
                reps = [second_derivative_report(phi, a, b, i, j) for phi in forms.values()]
                zz_ok = zz_ok and all(r.zz == zz for r in reps)
                sum_ok = sum_ok and all(r.jz_plus_zj == expected_sum for r in reps)
                jz_varies = jz_varies or any(reps[0].jz != r.jz for r in reps[1:])
                if i == j:
                    jj_ok = jj_ok and all(
                        r.jj == GaussianRational(
                            _ZERO, jj_scale * _coordinate_coordinate_case(d, m, a, b, al))
                        for al, r in zip(alphas, reps))
    rows.append(AuditRow("momentum-momentum second derivative", zz_ok,
                         "equals θθᵀ·Mħ/(iT) for every (a, b) and α"))
    rows.append(AuditRow("mixed second-derivative cancellation", sum_ok,
                         "jz+zj is α-free: 0 on the diagonal, "
                         "±iħθ·(m+1-|a-b|)/(m+1) off it"))
    rows.append(AuditRow("mixed parts individually α-dependent", jz_varies,
                         "the unsummed jz piece varies with α"))
    rows.append(AuditRow("coordinate-coordinate case table", jj_ok,
                         "matches the closed-form case structure "
                         "(off-diagonal entries include the -α²/(m+1) term)"))
    return AuditReport(rows)
