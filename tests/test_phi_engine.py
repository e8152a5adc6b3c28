import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpath import phi_engine
from ncpath.phi_engine import (
    AuditReport,
    GaussianRational,
    PhiContext,
    SourcePolynomial,
    apply_L,
    apply_L_to_exp,
    bareiss_determinant,
    build_phi,
    d_det,
    d_inverse_entry,
    dense_d_matrix,
    first_derivative_report,
    midslice_limit_check,
    run_phi_audit,
    second_derivative_report,
)

THETA = [[F(0), F(1, 10)], [F(-1, 10), F(0)]]
XF = [F(3), F(1)]
XIN = [F(5), F(-2)]


def gr(re=0, im=0):
    return GaussianRational(F(re), F(im))


def reference_phi_polynomial(ctx, x_f, x_in):
    """Brute-force Φ: μ_a as polynomials, then (iε/ħ)[(M/2)A - (M/8)Σ μ_a D⁻¹_ab μ_b]
    by literal polynomial products, independent of the engine's block form."""
    x_f = [F(v) for v in x_f]
    x_in = [F(v) for v in x_in]
    dim, m = len(x_f), ctx.slices_m
    eps, M, alpha, half = ctx.epsilon, ctx.mass, ctx.alpha, F(1, 2)

    def poly(*terms):
        p = SourcePolynomial()
        for mono, c in terms:
            p.add_term(mono, GaussianRational(c))
        return p

    A = SourcePolynomial()
    for i in range(dim):
        A = A + poly(((("J", m, i),), 2 / M * (half + alpha) * x_f[i]),
                     ((("J", 0, i),), 2 / M * (half - alpha) * x_in[i]),
                     ((("Z", m, i),), 2 / eps * x_f[i]),
                     ((("Z", 0, i),), -2 / eps * x_in[i]),
                     ((), (x_f[i] ** 2 + x_in[i] ** 2) / eps ** 2),
                     *(((("Z", a, i), ("Z", a, i)), 1) for a in range(m + 1)))

    def mu(a, i):
        return poly(((), -2 / eps * x_in[i] if a == 1 else 0),
                    ((), -2 / eps * x_f[i] if a == m else 0),
                    ((("Z", a - 1, i),), 2), ((("Z", a, i),), -2),
                    ((("J", a - 1, i),), 2 * eps / M * (half + alpha)),
                    ((("J", a, i),), 2 * eps / M * (half - alpha)))

    quad = SourcePolynomial()
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for i in range(dim):
                quad = quad + mu(a, i).multiply(mu(b, i)).scale(d_inverse_entry(m, a, b))
    return (A.scale(M / 2) + quad.scale(-M / 8)).scale(GaussianRational(0, eps / ctx.hbar))


# -- exact number type --------------------------------------------------------


def test_gaussian_rational_arithmetic():
    a = gr(F(1, 2), F(1, 3))
    b = gr(F(2), F(-1))
    assert a + b == gr(F(5, 2), F(-2, 3))
    assert a * b == gr(F(1) + F(1, 3), F(2, 3) - F(1, 2))
    assert (a / b) * b == a
    assert -a + a == gr()
    assert a.conjugate().conjugate() == a
    assert bool(gr()) is False
    with pytest.raises(ZeroDivisionError):
        a / gr()


_PARTS = (st.integers(-50, 50) | st.fractions(max_denominator=20)
          | st.fractions(max_denominator=20).map(lambda q: f"{q.numerator}/{q.denominator}"))


@given(_PARTS, _PARTS)
def test_gaussian_rational_parts_are_exact_fractions(re, im):
    z = GaussianRational(re, im)
    assert type(z.re) is F and type(z.im) is F
    assert (z.re, z.im) == (F(re), F(im))


# -- the coupling matrix ------------------------------------------------------


def test_determinant_closed_form_small():
    assert d_det(1) == 2
    assert d_det(2) == 3
    with pytest.raises(ValueError):
        d_det(0)


@pytest.mark.parametrize("m", [*range(1, 13), 31, 64, 101, 200])
def test_determinant_matches_dense_expansion(m):
    dense = dense_d_matrix(m)
    assert all(type(v) is int for row in dense for v in row)
    assert bareiss_determinant(dense) == d_det(m)


def test_bareiss_handles_rational_singular_and_pivoting():
    assert bareiss_determinant([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == \
        F(1, 10) - F(1, 12)
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert bareiss_determinant([]) == 1


@pytest.mark.parametrize("matrix", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]],
                                    [[1, 2], [3]], [[1]] * 2, [[]]])
def test_bareiss_rejects_non_square_input(matrix):
    with pytest.raises(ValueError, match="matrix"):
        bareiss_determinant(matrix)


def leibniz_determinant(matrix):
    """Σ over permutations σ of sign(σ)·Π_r M[r][σ(r)], in Fractions."""
    n = len(matrix)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = F(-1) ** inversions
        for r, c in enumerate(perm):
            term *= F(matrix[r][c])
        total += term
    return total


determinant_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
    st.integers(-64, 64).map(lambda k: k / 16),  # dyadic floats convert exactly
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    rows = [draw(st.lists(determinant_entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        # sparse: rows with a 0 in a pivot column fall behind and are caught up later
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        rows = [[v if keep[r * n + c] else 0 for c, v in enumerate(row)]
                for r, row in enumerate(rows)]
    if n and draw(st.booleans()):
        rows[0][0] = 0  # a zero leading pivot: a swap, or a zero first column
    if n > 1 and draw(st.booleans()):
        # singular: one row a rational multiple of another
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(st.builds(F, st.integers(-9, 9), st.integers(1, 4)))
        rows[dst] = [factor * F(v) for v in rows[src]]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_bareiss_matches_leibniz_expansion(matrix):
    expected = leibniz_determinant(matrix)
    assert bareiss_determinant(matrix) == expected
    assert bareiss_determinant([row[::-1] for row in matrix]) == \
        expected * (-1) ** (len(matrix) // 2)  # column reversal: n//2 swaps


def test_inverse_entries_closed_form():
    assert d_inverse_entry(2, 1, 1) == F(2, 3)
    assert d_inverse_entry(2, 1, 2) == F(1, 3)
    assert d_inverse_entry(2, 2, 1) == F(1, 3)  # symmetric extension
    with pytest.raises(ValueError):
        d_inverse_entry(2, 0, 1)


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_inverse_times_matrix_is_identity(m):
    dense = dense_d_matrix(m)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            s = sum(dense[a - 1][c - 1] * d_inverse_entry(m, c, b)
                    for c in range(1, m + 1))
            assert s == (1 if a == b else 0)


@pytest.mark.parametrize("m", [*range(1, 13), 64])
def test_padded_table_is_m_plus_one_times_the_inverse(m):
    table = phi_engine._padded_d_numerators(m)
    assert len(table) == m + 2 and all(len(row) == m + 2 for row in table)
    for a, row in enumerate(table):
        for b, value in enumerate(row):
            assert type(value) is int
            inside = 1 <= a <= m and 1 <= b <= m
            assert value == (d_inverse_entry(m, a, b) * (m + 1) if inside else 0)


# -- the exponent -------------------------------------------------------------


def test_phi_is_bilinear_and_theta_free():
    ctx = PhiContext(3, F(1), F(1, 4))
    phi = build_phi(ctx, THETA, XF, XIN)
    assert phi.polynomial.degree() == 2
    # θ never enters the polynomial: rebuilding with -θ changes nothing
    other = build_phi(ctx, [[F(0), F(-1, 10)], [F(1, 10), F(0)]], XF, XIN)
    assert phi.polynomial == other.polynomial


def test_phi_quadratic_coefficients_symmetric():
    ctx = PhiContext(2, F(1), F(1, 3))
    phi = build_phi(ctx, THETA, XF, XIN)
    for mono, coeff in phi.polynomial.terms.items():
        if len(mono) == 2:
            assert phi.polynomial.coefficient((mono[1], mono[0])) == coeff


@pytest.mark.parametrize("m", [1, 2, 4])
def test_phi_constant_is_free_kernel_exponent(m):
    # at zero sources the exponent reproduces i M |x_f - x_in|² / (2ħT)
    T = F(3, 2)
    ctx = PhiContext(m, T, F(1, 5))
    phi = build_phi(ctx, THETA, XF, XIN)
    d2 = sum((f - i) ** 2 for f, i in zip(XF, XIN))
    assert phi.constant == GaussianRational(0, d2 / (2 * T))


def test_free_kernel_value_matches_closed_fresnel_form():
    import numpy as np

    m, T = 4, 2.0
    ctx = PhiContext(m, F(2), F(0))
    phi = build_phi(ctx, THETA, XF, XIN)
    prefactor = (1.0 / (2j * np.pi * T)) ** (len(XF) / 2.0)
    value = prefactor * np.exp(phi.constant.to_complex())
    d2 = float(sum((f - i) ** 2 for f, i in zip(XF, XIN)))
    closed = (1.0 / (2j * np.pi * T)) ** 1.0 * np.exp(1j * d2 / (2 * T))
    assert abs(value - closed) < 1e-14


def test_first_derivative_exact_structure():
    # the coordinate route is the α-weighted straight-line point; the
    # momentum route is (M/T)·θ·(x_f - x_in) for every slice label
    m, T, alpha = 5, F(2), F(1, 4)
    ctx = PhiContext(m, T, alpha)
    phi = build_phi(ctx, THETA, XF, XIN)
    for a in range(m + 1):
        for i in range(2):
            rep = first_derivative_report(phi, a, i)
            wf = (F(2 * a + 1, 2) + alpha) / (m + 1)
            wi = (F(2 * (m - a) + 1, 2) - alpha) / (m + 1)
            assert rep.coordinate_route == GaussianRational(XF[i] * wf + XIN[i] * wi)
            expected = sum((THETA[i][l] * (XF[l] - XIN[l]) for l in range(2)), F(0)) / T
            assert rep.momentum_route == GaussianRational(expected)


def test_first_derivative_endpoint_limit_structure():
    # endpoints converge onto the boundary points as the slicing refines
    for m in (3, 10, 40):
        ctx = PhiContext(m, F(1), F(1, 3))
        phi = build_phi(ctx, THETA, XF, XIN)
        end = first_derivative_report(phi, m, 0).coordinate_route
        gap = end - GaussianRational(XF[0])
        assert gap.im == 0
        assert abs(gap.re) <= abs(XF[0] - XIN[0]) / (m + 1)
        start = first_derivative_report(phi, 0, 0).coordinate_route
        gap0 = start - GaussianRational(XIN[0])
        assert abs(gap0.re) <= abs(XF[0] - XIN[0]) / (m + 1)


def test_single_l_with_coupling_matches_route_sum():
    ctx = PhiContext(3, F(1), F(0))
    phi = build_phi(ctx, THETA, XF, XIN)
    for a in (0, 2, 3):
        rep = first_derivative_report(phi, a, 0)
        assert apply_L(phi, [(a, 0)]).at_zero() == rep.total


def test_triple_l_vanishes_exactly():
    ctx = PhiContext(2, F(1), F(1, 2))
    phi = build_phi(ctx, THETA, XF, XIN)
    assert len(apply_L(phi, [(0, 0), (1, 1), (2, 0)]).terms) == 0


def _pairing_expansion(phi, indices):
    """Independent oracle: sum over pairings of first and second derivatives."""
    def first(idx):
        return apply_L(phi, [idx]).at_zero()

    def second(i1, i2):
        return apply_L(phi, [i1, i2]).at_zero()

    n = len(indices)
    total = GaussianRational(0)
    # partition indices into singletons and unordered pairs
    def partitions(rest):
        if not rest:
            yield []
            return
        head, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            yield [("s", head)] + sub
        for j in range(len(tail)):
            reduced = tail[:j] + tail[j + 1:]
            for sub in partitions(reduced):
                yield [("p", head, tail[j])] + sub

    for part in partitions(list(range(n))):
        term = GaussianRational(1)
        for piece in part:
            if piece[0] == "s":
                term = term * first(indices[piece[1]])
            else:
                term = term * second(indices[piece[1]], indices[piece[2]])
        total = total + term
    return total


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_exponential_action_matches_pairing_expansion(count):
    ctx = PhiContext(3, F(1), F(1, 4))
    phi = build_phi(ctx, THETA, XF, XIN)
    indices = [(0, 0), (1, 1), (2, 0), (3, 1)][:count]
    assert apply_L_to_exp(phi, indices) == _pairing_expansion(phi, indices)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def phi_cases(draw):
    m = draw(st.integers(1, 6))
    alpha = draw(st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=9))
    dim = draw(st.sampled_from([2, 3]))
    theta = [[F(0)] * dim for _ in range(dim)]
    for r, c in itertools.combinations(range(dim), 2):
        theta[r][c] = draw(rationals)
        theta[c][r] = -theta[r][c]
    x_f = draw(st.lists(rationals, min_size=dim, max_size=dim))
    x_in = draw(st.lists(rationals, min_size=dim, max_size=dim))
    total_time = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=5))
    return PhiContext(m, total_time, alpha), theta, x_f, x_in


@settings(max_examples=20, deadline=None)
@given(phi_cases(), st.data())
def test_block_engine_matches_brute_force_reference(case, data):
    ctx, theta, x_f, x_in = case
    phi = build_phi(ctx, theta, x_f, x_in)
    reference = reference_phi_polynomial(ctx, x_f, x_in)
    assert phi.polynomial == reference
    assert phi.constant == reference.at_zero()
    # the derivative reports read the blocks; apply_L reads the reference
    ref_phi = build_phi(ctx, theta, x_f, x_in)
    ref_phi.polynomial = reference
    labels = st.integers(0, ctx.slices_m)
    components = st.integers(0, len(x_f) - 1)
    for a in range(ctx.slices_m + 1):
        for i in range(len(x_f)):
            assert first_derivative_report(phi, a, i).total == \
                apply_L(ref_phi, [(a, i)]).at_zero()
    for _ in range(8):
        a, b = data.draw(labels), data.draw(labels)
        i, j = data.draw(components), data.draw(components)
        assert second_derivative_report(phi, a, b, i, j).total == \
            apply_L(ref_phi, [(a, i), (b, j)]).at_zero()


@pytest.mark.parametrize("m", [True, 2.5, F(3), 0])
def test_phi_context_refuses_a_slice_count_that_is_not_a_positive_integer(m):
    with pytest.raises(ValueError, match="^slices_m: "):
        PhiContext(m, F(1), F(0))


@pytest.mark.parametrize("call, args", [(d_det, (2.5,)), (d_det, (True,)), (d_det, (0,)),
                                        (dense_d_matrix, (True,)), (dense_d_matrix, (0,)),
                                        (midslice_limit_check, (2.0, 1)),
                                        (midslice_limit_check, (0, 1))])
def test_slice_counts_are_read_by_one_reader(call, args):
    # a float or a bool is refused, not taken as a count
    with pytest.raises(ValueError, match="^m: need an integer of at least 1"):
        call(*args)


@pytest.mark.parametrize("field, value", [("hbar", 0), ("hbar", -1), ("mass", 0),
                                          ("total_time", 0), ("hbar", True),
                                          ("mass", float("inf")), ("alpha", "0")])
def test_phi_context_refuses_a_run_parameter_by_name(field, value):
    kwargs = {"slices_m": 3, "total_time": F(1), "alpha": F(0), field: value}
    with pytest.raises(ValueError, match=f"^{field}: "):
        PhiContext(**kwargs)


def test_phi_context_reads_float_parameters_exactly():
    exact = build_phi(PhiContext(3, F(1), F(0), mass=1), THETA, XF, XIN)
    floated = build_phi(PhiContext(3, F(1), F(0), mass=1.0), THETA, XF, XIN)
    assert type(floated.q0) is F and floated.q0 == exact.q0
    assert floated.polynomial == exact.polynomial
    for a in range(4):
        assert first_derivative_report(floated, a, 0) == first_derivative_report(exact, a, 0)
        assert second_derivative_report(floated, a, 2, 0, 1) == \
            second_derivative_report(exact, a, 2, 0, 1)
    ctx = PhiContext(3, 0.5, 0.25)
    assert (ctx.epsilon, ctx.alpha) == (F(1, 8), F(1, 4))


_DERIVATIVE_ENTRIES = {
    "apply_L": lambda phi, a, i: apply_L(phi, [(a, i)]),
    "apply_L_to_exp": lambda phi, a, i: apply_L_to_exp(phi, [(a, i)]),
    "first_derivative_report": first_derivative_report,
    "second_derivative_report": lambda phi, a, i: second_derivative_report(phi, a, a, i, i),
}


@pytest.mark.parametrize("entry", list(_DERIVATIVE_ENTRIES))
@pytest.mark.parametrize("a, i, message", [(4, 0, "slice label"), (-1, 0, "slice label"),
                                           (0, 2, "component"), (0, -1, "component"),
                                           (0.5, 0, "slice label"), (True, 0, "slice label"),
                                           ("1", 0, "slice label"), (0, 0.5, "component"),
                                           (0, True, "component"), (0, "1", "component")])
def test_every_derivative_entry_refuses_the_same_labels(entry, a, i, message):
    # m = 3 and N = 2: a label past either end would read a wrong entry or
    # none, and True would read label 1
    phi = build_phi(PhiContext(3, F(1), F(0)), THETA, XF, XIN)
    with pytest.raises(ValueError, match=message):
        _DERIVATIVE_ENTRIES[entry](phi, a, i)


@pytest.mark.parametrize("entry", list(_DERIVATIVE_ENTRIES))
def test_every_derivative_entry_reads_numpy_integer_labels(entry):
    import numpy as np
    phi = build_phi(PhiContext(3, F(1), F(1, 5)), THETA, XF, XIN)
    run = _DERIVATIVE_ENTRIES[entry]
    assert run(phi, np.int64(2), np.int32(1)) == run(phi, 2, 1)


@pytest.mark.parametrize("theta, x_f, x_in, field", [
    (THETA, [True, F(1, 2)], XIN, "x_f"),
    (THETA, [float("nan"), F(1)], XIN, "x_f"),
    (THETA, XF, ["1/2", F(1)], "x_in"),
    (THETA, XF, [F(5), F(-2), F(0)], "x_in"),
    ([["0", "1/10"], ["-1/10", "0"]], XF, XIN, "theta"),
    ([[F(0)] * 3] * 3, XF, XIN, "theta"),
    ([[F(0)]], XF, XIN, "theta"),
    ([[F(0), F(1, 10)], [F(-1, 10)]], XF, XIN, "theta"),
], ids=["bool", "nan", "string-point", "x_in-length", "string-theta", "theta-3x3",
        "theta-1x1", "ragged"])
def test_build_phi_refuses_a_point_or_theta_by_name(theta, x_f, x_in, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        build_phi(PhiContext(3, F(1), F(0)), theta, x_f, x_in)


def test_build_phi_reads_float_points_and_theta_exactly():
    ctx, halves = PhiContext(3, F(1), F(1, 5)), [[F(0), F(1, 2)], [F(-1, 2), F(0)]]
    floated = build_phi(ctx, [[0.0, 0.5], [-0.5, 0.0]], [3.0, 1], [5, -2.0])
    assert floated.polynomial == build_phi(ctx, halves, XF, XIN).polynomial
    assert build_phi(ctx, [[0.0, 0.1], [-0.1, 0.0]], XF, XIN).theta[0][1] == F(0.1)


def test_reports_reject_labels_out_of_range():
    phi = build_phi(PhiContext(3, F(1), F(0)), THETA, XF, XIN)
    for bad in ((4, 0), (-1, 0), (0, 2), (0, -1)):
        with pytest.raises(ValueError):
            first_derivative_report(phi, *bad)
    with pytest.raises(ValueError):
        second_derivative_report(phi, 0, 0, 0, 2)
    with pytest.raises(ValueError):
        second_derivative_report(phi, -1, 0, 0, 0)


# -- second derivatives -------------------------------------------------------


def test_momentum_momentum_part_uniform():
    # θ^{ik}θ^{jk}·Mħ/(iT) for every slice pair, every α
    T = F(1)
    for m in (1, 3, 6):
        for alpha in (F(-1, 2), F(0), F(1, 3)):
            phi = build_phi(PhiContext(m, T, alpha), THETA, XF, XIN)
            for a in range(m + 1):
                for b in range(m + 1):
                    rep = second_derivative_report(phi, a, b, 0, 0)
                    tsq = sum((THETA[0][k] * THETA[0][k] for k in range(2)), F(0))
                    assert rep.zz == GaussianRational(0, -tsq / T)
                    rep01 = second_derivative_report(phi, a, b, 0, 1)
                    assert rep01.zz == GaussianRational(0)


def test_mixed_sum_case_structure():
    # jz + zj: zero on the diagonal, ±iħθ^{ij}(m+1-|a-b|)/(m+1) off it
    m = 4
    for alpha in (F(-1, 2), F(0), F(2, 5)):
        phi = build_phi(PhiContext(m, F(1), alpha), THETA, XF, XIN)
        for a in range(m + 1):
            for b in range(m + 1):
                rep = second_derivative_report(phi, a, b, 0, 1)
                if a == b:
                    assert rep.jz_plus_zj == GaussianRational(0)
                else:
                    sign = 1 if a < b else -1
                    mag = F(m + 1 - abs(a - b), m + 1)
                    assert rep.jz_plus_zj == GaussianRational(
                        0, sign * THETA[0][1] * mag)


def test_mixed_parts_individually_alpha_dependent():
    m = 3
    phi_a = build_phi(PhiContext(m, F(1), F(0)), THETA, XF, XIN)
    phi_b = build_phi(PhiContext(m, F(1), F(1, 2)), THETA, XF, XIN)
    r_a = second_derivative_report(phi_a, 1, 2, 0, 1)
    r_b = second_derivative_report(phi_b, 1, 2, 0, 1)
    assert r_a.jz != r_b.jz
    assert r_a.jz_plus_zj == r_b.jz_plus_zj


def test_coordinate_coordinate_endpoint_and_diagonal_cases():
    # frozen case structure of the coordinate-coordinate second derivative
    m, alpha = 5, F(1, 3)
    ctx = PhiContext(m, F(1), alpha)
    phi = build_phi(ctx, THETA, XF, XIN)
    eps = ctx.epsilon
    half = F(1, 2)

    def jj(a, b):
        return second_derivative_report(phi, a, b, 0, 0).jj

    assert jj(0, 0) == GaussianRational(0, eps * F(m, m + 1) * (half + alpha) ** 2)
    assert jj(m, m) == GaussianRational(0, eps * F(m, m + 1) * (half - alpha) ** 2)
    for a in range(1, m):
        bracket = F(4 * a * (m - a) + m, 4) + alpha * (m - 2 * a) + m * alpha**2
        assert jj(a, a) == GaussianRational(0, eps * bracket / (m + 1))


def test_coordinate_coordinate_offdiagonal_closed_form():
    # exact interior off-diagonal bracket from the direct double sum:
    # ¼(2a+1)(2m+1-2b) + α(m-b-a) - α², over (m+1); note the -α² tail and
    # the (2a+1) factor, both absent from the leading-order reading but
    # required for exact equality at finite slice count
    m = 4
    for alpha in (F(0), F(1, 4), F(-2, 5)):
        ctx = PhiContext(m, F(1), alpha)
        phi = build_phi(ctx, THETA, XF, XIN)
        eps = ctx.epsilon
        for a in range(1, m):
            for b in range(a + 1, m):
                bracket = (F((2 * a + 1) * (2 * m + 1 - 2 * b), 4)
                           + alpha * (m - b - a) - alpha**2)
                expected = GaussianRational(0, eps * bracket / (m + 1))
                assert second_derivative_report(phi, a, b, 0, 0).jj == expected
                # symmetric under swapping the pair
                assert second_derivative_report(phi, b, a, 0, 0).jj == expected


def test_offdiagonal_jj_component_structure():
    # coordinate-coordinate part is diagonal in the component indices
    phi = build_phi(PhiContext(3, F(1), F(1, 4)), THETA, XF, XIN)
    assert second_derivative_report(phi, 1, 2, 0, 1).jj == GaussianRational(0)


def test_jj_brownian_bridge_shape():
    # at scaled labels a = sm, b = tm the surviving coefficient approaches
    # (iħT/M)·min(s,t)(1 - max(s,t)), the bridge covariance, within O(1/m)
    T = F(1)
    for m in (40, 80):
        phi = build_phi(PhiContext(m, T, F(0)), THETA, XF, XIN)
        for s, t in ((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(1, 4), F(3, 4)),
                     (F(1, 2), F(1, 2))):
            a, b = int(s * m), int(t * m)
            value = second_derivative_report(phi, a, b, 0, 0).jj
            target = float(min(s, t) * (1 - max(s, t)))
            assert value.re == 0
            assert abs(float(value.im) - target) < 4.0 / m


# -- limit and audits ---------------------------------------------------------


def test_midslice_limit_exact_values():
    value, error = midslice_limit_check(2, F(1))
    assert (value, error) == (F(2, 3), F(1, 3))
    for m in (10, 100, 1000):
        value, error = midslice_limit_check(m, F(1))
        assert value == F(m, m + 1)
        assert error == F(1, m + 1)
    assert midslice_limit_check(1000, F(1))[1] < F(11, 10000)  # < 1.1e-3


def test_midslice_limit_rejects_odd():
    with pytest.raises(ValueError):
        midslice_limit_check(3, F(1))


@pytest.mark.parametrize("T", [F(0), F(-1)])
def test_midslice_limit_rejects_non_positive_duration(T):
    # at T = 0 the check would compare 0 with 0 and pass vacuously
    with pytest.raises(ValueError, match="total_time: must be positive"):
        midslice_limit_check(2, T)


def test_midslice_limit_scales_with_duration():
    value, error = midslice_limit_check(4, F(3))
    assert value == F(9) * F(4, 5)
    assert error == F(9, 5)


AUDIT_ROWS = [
    "determinant closed form",
    "inverse closed form",
    "surviving midslice coefficient",
    "first-derivative momentum route",
    "first-derivative coordinate route",
    "momentum-momentum second derivative",
    "mixed second-derivative cancellation",
    "mixed parts individually α-dependent",
    "coordinate-coordinate case table",
]


def test_full_identity_audit_passes_at_m_3():
    report = run_phi_audit(3, [F(-1, 2), F(0), F(1, 2)])
    assert isinstance(report, AuditReport)
    assert report.ok
    assert [row.name for row in report.rows] == AUDIT_ROWS


def test_audit_certifies_the_table_build_phi_reads(monkeypatch):
    padded = phi_engine._padded_d_numerators

    def corrupted(m):
        table = padded(m)
        table[1][1] += 1
        return table

    monkeypatch.setattr(phi_engine, "_padded_d_numerators", corrupted)
    report = run_phi_audit(3, [F(-1, 2), F(0), F(1, 2)])
    failed = [row.name for row in report.rows if not row.passed]
    assert "inverse closed form" in failed  # the dense check sees the bad entry
    assert "mixed second-derivative cancellation" in failed  # and so do Φ's blocks


def test_full_identity_audit_passes_at_m_64():
    assert run_phi_audit(64, [F(-1, 2), F(0), F(1, 2)]).ok


@pytest.mark.parametrize("alphas", [[F(0), F(1, 2)], [F(0), F(0), F(1, 2)]])
def test_full_identity_audit_needs_three_values(alphas):
    with pytest.raises(ValueError, match="sample_alphas"):
        run_phi_audit(3, alphas)


@pytest.mark.parametrize("audit", [run_phi_audit])
@pytest.mark.parametrize("dim", [1, 0])
def test_audits_reject_dimension_below_two(audit, dim):
    # θ vanishes in one dimension, so the α-dependence rows would check nothing
    with pytest.raises(ValueError, match="dim"):
        audit(3, [F(-1, 2), F(0), F(1, 2)], dim=dim)


def test_full_identity_audit_passes():
    report = run_phi_audit(4, [F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)])
    assert report.ok
    names = [row.name for row in report.rows]
    assert "determinant closed form" in names
    assert "mixed second-derivative cancellation" in names


def test_time_reversal_relabeling_preserves_coefficients():
    # Φ(J, Z; x_f, x_in, α) = Φ(J∘rev, -Z∘rev; x_in, x_f, -α): coefficient
    # map with a sign per momentum-source factor, hence an invariant
    # multiset of absolute coefficients
    m = 3
    ctx = PhiContext(m, F(1), F(1, 4))
    ctx_rev = PhiContext(m, F(1), F(-1, 4))
    phi = build_phi(ctx, THETA, XF, XIN)
    phi_rev = build_phi(ctx_rev, THETA, XIN, XF)

    def relabel(mono):
        out = []
        signs = 1
        for kind, a, i in mono:
            out.append((kind, m - a, i))
            if kind == "Z":
                signs = -signs
        return tuple(sorted(out)), signs

    for mono, coeff in phi.polynomial.terms.items():
        target, sign = relabel(mono)
        assert phi_rev.polynomial.coefficient(target) == coeff * sign
    multiset = sorted((abs(c.re), abs(c.im)) for c in phi.polynomial.terms.values())
    multiset_rev = sorted((abs(c.re), abs(c.im))
                          for c in phi_rev.polynomial.terms.values())
    assert multiset == multiset_rev


def test_source_polynomial_basics():
    p = SourcePolynomial()
    v = ("J", 0, 0)
    p.add_term((v, v), GaussianRational(F(1, 2)))
    d2 = p.differentiate(v).differentiate(v).at_zero()
    assert d2 == GaussianRational(1)
    assert p.coefficient((v, v)) == GaussianRational(F(1, 2))


def test_context_validation():
    with pytest.raises(ValueError):
        PhiContext(0, F(1), F(0))
    with pytest.raises(ValueError):
        PhiContext(2, F(0), F(0))
    with pytest.raises(ValueError):
        PhiContext(2, F(1), F(3, 4))
    assert PhiContext(3, F(2), F(0)).epsilon == F(1, 2)
