"""Width moments in dimensions 2 and 3 from the support function: exact
oracles, independent of the survival-function quadrature.

In R^2 and R^3 the width W(u) of a polytope in the direction u is
elementary, and E[W^k] over a uniform direction is one 1-D integral (2-D for
Q_3), which mpmath evaluates to 30 digits:

- C_2, the square conv(+-e_1, +-e_2): W = 2 max(|cos phi|, |sin phi|), so
  E[W^k] = 2^k (4/pi) int_0^{pi/4} cos^k phi dphi;
- C_3, the octahedron: W = 2 max |theta_i|.  On the sixth of the sphere where
  theta_3 is the largest, polar coordinates (psi, b) about e_3 put the
  region at cos psi >= c(b) = m / sqrt(1 + m^2), m = max(|cos b|, |sin b|),
  and the psi integral is closed form, so
  E[W^k] = (6/pi) 2^k / (k + 1) int_0^{pi/2} (1 - c(b)^(k+1)) db;
- T_2, the triangle inscribed in the unit circle: W(phi) is the spread of
  the vertices' projections cos(phi - alpha_i), alpha_i = 0, 2pi/3, 4pi/3,
  smooth between multiples of pi/6;
- Q_2 and Q_3, the unit square and cube: W = sum |theta_i|, and by symmetry
  E[W^k] is its mean over one quadrant or octant, where W = cos phi + sin phi,
  or sin theta (cos phi + sin phi) + cos theta in spherical coordinates;
  neither uses the cube's closed form.
"""

import functools

import mpmath
import pytest

from meanwidth.polytopes import PolytopeKind, family_width_moments

KS = (1, 2, 3, 4)


def cross_2(k):
    return 2**k * 4 / mpmath.pi * mpmath.quad(lambda phi: mpmath.cos(phi) ** k, [0, mpmath.pi / 4])


def cross_3(k):
    def c(b):
        m = max(abs(mpmath.cos(b)), abs(mpmath.sin(b)))
        return m / mpmath.sqrt(1 + m * m)

    inner = mpmath.quad(lambda b: 1 - c(b) ** (k + 1), [0, mpmath.pi / 4, mpmath.pi / 2])
    return 6 / mpmath.pi * 2**k / (k + 1) * inner


def triangle(k):
    alphas = [2 * mpmath.pi * i / 3 for i in range(3)]

    def width(phi):
        projections = [mpmath.cos(phi - alpha) for alpha in alphas]
        return max(projections) - min(projections)

    breaks = [i * mpmath.pi / 6 for i in range(13)]
    return mpmath.quad(lambda phi: width(phi) ** k, breaks) / (2 * mpmath.pi)


def cube_2(k):
    return 2 / mpmath.pi * mpmath.quad(lambda phi: (mpmath.cos(phi) + mpmath.sin(phi)) ** k, [0, mpmath.pi / 2])


def cube_3(k):
    def integrand(theta, phi):
        return (mpmath.sin(theta) * (mpmath.cos(phi) + mpmath.sin(phi)) + mpmath.cos(theta)) ** k * mpmath.sin(theta)

    return 2 / mpmath.pi * mpmath.quad(integrand, [0, mpmath.pi / 2], [0, mpmath.pi / 2])


@functools.cache  # cube_3's 2-D integrals take about 3 s, so its self-check reuses them
def exact_moments(oracle):
    with mpmath.workdps(30):
        return {k: oracle(k) for k in KS}


@pytest.mark.parametrize(
    "kind, n, oracle",
    [
        pytest.param(PolytopeKind.CROSS, 2, cross_2, id="C_2"),
        pytest.param(PolytopeKind.CROSS, 3, cross_3, id="C_3"),
        pytest.param(PolytopeKind.SIMPLEX_T, 3, triangle, id="T_2"),
        pytest.param(PolytopeKind.CUBE, 2, cube_2, id="Q_2"),
        pytest.param(PolytopeKind.CUBE, 3, cube_3, id="Q_3"),
    ],
)
def test_quadrature_matches_the_support_function(kind, n, oracle):
    exact = exact_moments(oracle)
    for k, est in family_width_moments(kind, (n,), KS)[0].items():
        assert abs(est.value - float(exact[k])) <= est.error, k
        assert abs(est.value - float(exact[k])) <= 1e-13 * float(exact[k]), k


def test_the_oracles_reproduce_known_values():
    # E W(C_2) = 8 sin(pi/4) / pi = 4 sqrt(2) / pi; E W(C_3) as tabulated;
    # T_2 has height 3/2 and side sqrt(3), between which its width runs
    with mpmath.workdps(30):
        assert abs(cross_2(1) - 4 * mpmath.sqrt(2) / mpmath.pi) <= mpmath.mpf(10) ** -28
        assert float(cross_3(1)) == pytest.approx(1.662379271938716, rel=1e-15)
        # W = sqrt(3) sin(phi + pi/3) on [0, pi/3]: E W = (3/pi) * sqrt(3) * 1 = 3 sqrt(3) / pi
        assert abs(triangle(1) - 3 * mpmath.sqrt(3) / mpmath.pi) <= mpmath.mpf(10) ** -28


def test_the_cube_oracles_reproduce_known_values():
    # E W(Q_n) = n E|theta_1|, and E W^2 = 1 + n (n - 1) E|theta_1 theta_2| as |theta| = 1:
    # E|theta_1| = 2/pi, 1/2 and E|theta_1 theta_2| = 1/pi, 2/(3 pi) for n = 2, 3
    q2, q3 = exact_moments(cube_2), exact_moments(cube_3)
    with mpmath.workdps(30):
        tol = mpmath.mpf(10) ** -28
        assert abs(q2[1] - 4 / mpmath.pi) <= tol
        assert abs(q2[2] - (1 + 2 / mpmath.pi)) <= tol
        assert abs(q3[1] - mpmath.mpf(3) / 2) <= tol
        assert abs(q3[2] - (1 + 4 / mpmath.pi)) <= tol
