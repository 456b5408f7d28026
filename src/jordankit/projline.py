"""The projective line over A = M_n(K), realized as the Grassmannian of
n-dimensional subspaces of K^{2n}: charts, transversality, the fractional
group action, dilations, the four block involutions and their point maps,
point classification, the Cayley transform and polarities.
"""

from __future__ import annotations

from . import _kernels as K
from .algebra import Matrix
from .errors import (NotInChart, NotTransversal, RingMismatch,
                     ShapeMismatch)
from .graded import GroupElement


class ProjectivePoint:
    """A 2n x n full-column-rank matrix modulo right basis change."""

    __slots__ = ("n", "ring", "rep")

    def __init__(self, rep, n=None):
        n = rep.ncols if n is None else n
        if rep.shape != (2 * n, n):
            raise ShapeMismatch(f"point rep must be 2n x n, got {rep.shape}")
        if rep.rank() != n:
            raise ShapeMismatch("point rep is rank-deficient")
        self.n = n
        self.ring = rep.ring
        self.rep = rep

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.ring != other.ring or self.n != other.n:
            return False
        return self.rep.hstack(other.rep).rank() == self.n

    def __hash__(self):
        raise TypeError("projective points compare by column space; no hash")

    def embed(self, ring):
        if ring == self.ring:
            return self
        return ProjectivePoint(self.rep.embed(ring), self.n)

    def __repr__(self):
        return f"ProjectivePoint({self.rep!r})"


def gamma_chart(z):
    """Column space of (z; 1): the graph of left translation by z."""
    return ProjectivePoint(z.vstack(Matrix.identity(z.ring, z.nrows)), z.nrows)


def base_plus(ring, n):
    """o+ = [(1; 0)]."""
    one = Matrix.identity(ring, n)
    return ProjectivePoint(one.vstack(Matrix.zeros(ring, n)), n)


def base_minus(ring, n):
    """o- = [(0; 1)] = Gamma_0."""
    one = Matrix.identity(ring, n)
    return ProjectivePoint(Matrix.zeros(ring, n).vstack(one), n)


def chart_coords(E):
    """z with E = Gamma_z, i.e. P Q^-1 for rep = (P; Q)."""
    n = E.n
    p = E.rep.submatrix(range(n), range(n))
    q = E.rep.submatrix(range(n, 2 * n), range(n))
    if q.rank() != n:
        raise NotInChart("point is not transversal to o+")
    return p @ q.inverse()


def in_chart(E):
    n = E.n
    return E.rep.submatrix(range(n, 2 * n), range(n)).rank() == n


def transversal(E, F):
    if E.ring != F.ring or E.n != F.n:
        raise RingMismatch("points of different lines")
    return E.rep.hstack(F.rep).rank() == 2 * E.n


def act_frac(g, E):
    """Column space of g . rep; total on the projective line."""
    return ProjectivePoint(g.mat @ E.rep, E.n)


def mu_dilation(r, x, a, y):
    """Image of y under (id on the x-summand) + (r on the a-summand) of
    K^{2n} = x + a; in the chart with origin x and infinity a this scales
    coordinates by r."""
    ring = x.ring
    if not ring.is_unit(r):
        from .errors import NotAUnit
        raise NotAUnit("dilation factor must be a unit")
    if not (transversal(x, a) and transversal(y, a)):
        raise NotTransversal("dilation needs x and y transversal to a")
    m = x.rep.hstack(a.rep)
    pq = m.solve(y.rep)
    n = x.n
    p = pq.submatrix(range(n), range(n))
    q = pq.submatrix(range(n, 2 * n), range(n))
    return ProjectivePoint(x.rep @ p + a.rep @ q.scale(r), n)


# -- block involutions of M_2(A) -------------------------------------------

def phi_matrix(j, iota, X, n):
    """Phi_j applied to a 2n x 2n matrix seen as an element of M_2(A)."""
    rows, rows2 = range(n), range(n, 2 * n)
    a = iota.apply(X.submatrix(rows, rows))
    b = iota.apply(X.submatrix(rows, rows2))
    c = iota.apply(X.submatrix(rows2, rows))
    d = iota.apply(X.submatrix(rows2, rows2))
    if j == 1:
        blocks = (d, -b, -c, a)
    elif j == 2:
        blocks = (d, b, c, a)
    elif j == 3:
        blocks = (a, -c, -b, d)
    elif j == 4:
        blocks = (a, c, b, d)
    else:
        raise ValueError(f"no involution Phi_{j}")
    p, q, r, s = blocks
    return p.hstack(q).vstack(r.hstack(s))


def phi_group(j, iota, g):
    """The group automorphism g -> Phi_j(g)^-1."""
    m = phi_matrix(j, iota, g.mat, g.n)
    return GroupElement(g.n, g.ring, m).inverse()


def standard_complement(E):
    """The complement of E spanned by the first standard basis vectors
    independent of E and of each other: the pivot columns after the
    first n of [E | I_2n]."""
    ring, n = E.ring, E.n
    eye = Matrix.identity(ring, 2 * n)
    piv = K.pivot_columns(E.rep.hstack(eye)._form, ring)
    return ProjectivePoint(
        eye.submatrix(range(2 * n), [k - n for k in piv if k >= n]), n)


def projection_onto(E, F):
    """The projection of K^{2n} with image E and kernel F."""
    ring, n = E.ring, E.n
    m = E.rep.hstack(F.rep)
    sel = E.rep.hstack(Matrix.zeros(ring, 2 * n, n))
    # p = [E | 0] M^-1: fixes E, kills F.
    return sel @ m.inverse()


def phi_involution(j, iota, E, complement=None):
    """Point map of Phi_j: im(p) -> ker(Phi_j(p)); independent of the
    complement used to build the projection p."""
    F = complement if complement is not None else standard_complement(E)
    if not transversal(E, F):
        raise NotTransversal("complement is not transversal to the point")
    p = projection_onto(E, F)
    q = phi_matrix(j, iota, p, E.n)
    # ker(q) = im(1 - q) for idempotent q.
    kmat = Matrix.identity(E.ring, 2 * E.n) - q
    piv = K.pivot_columns(kmat._form, E.ring)
    if len(piv) != E.n:
        raise ShapeMismatch("involution image has wrong rank")
    return ProjectivePoint(kmat.submatrix(range(2 * E.n), piv), E.n)


def classify_point(iota, E):
    """Fixed-point flags under the point maps of Phi_1, Phi_2, Phi_3; on
    chart points these are z* = z, z* = -z, z* = z^-1."""
    return {
        "hermitian": phi_involution(1, iota, E) == E,
        "antihermitian": phi_involution(2, iota, E) == E,
        "unitary": phi_involution(3, iota, E) == E,
    }


# -- polarities -------------------------------------------------------------

def modification_matrix(H):
    """(0 H; H^-1 0) for an invertible hermitian H."""
    z = Matrix.zeros(H.ring, H.nrows)
    return GroupElement.from_blocks(z, H, H.inverse(), z)


class Polarity:
    """An order-2 point map of the projective line: E -> S.E (linear) or
    E -> S.phi_j(E) (semilinear); an invertible hermitian H replaces S by
    (0 H; H^-1 0) S."""

    __slots__ = ("mode", "S", "j", "involution", "H", "_eff")

    def __init__(self, mode, S=None, j=None, involution=None, H=None,
                 ring=None, n=None):
        if mode not in ("linear", "semilinear"):
            raise ValueError(f"unknown polarity mode {mode!r}")
        if mode == "linear" and S is None:
            raise ValueError("linear polarity needs a matrix S")
        if mode == "semilinear":
            if j not in (1, 2, 3, 4):
                raise ValueError("semilinear polarity needs j in 1..4")
            if involution is None:
                from .algebra import Involution
                involution = Involution()
            if S is None:
                if ring is None or n is None:
                    raise ValueError("semilinear polarity needs S or (ring, n)")
                S = GroupElement.identity(ring, n)
        self.mode = mode
        self.S = S
        self.j = j
        self.involution = involution
        self.H = H
        self._eff = modification_matrix(H) @ S if H is not None else S

    def apply(self, E):
        if self.mode == "linear":
            return act_frac(self._eff, E)
        return act_frac(self._eff, phi_involution(self.j, self.involution, E))

    def nonisotropic(self, E):
        return transversal(E, self.apply(E))

    def embed(self, ring):
        if ring == self.S.ring:
            return self
        return Polarity(self.mode, S=self.S.embed(ring), j=self.j,
                        involution=(self.involution.embed(ring)
                                    if self.involution else None),
                        H=self.H.embed(ring) if self.H is not None else None)

    def __repr__(self):
        tag = "linear" if self.mode == "linear" else f"semilinear(j={self.j})"
        return f"Polarity({tag}{', modified' if self.H is not None else ''})"
