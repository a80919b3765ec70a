"""Small standard algebras and modules used by the built-in scenarios."""

from .algebra import AlgebraPresentation, Quiver, projective
from .errors import QuivrepError
from .linalg import QQ, Mat
from .rep import ModHom, Rep, hom_space


def kronecker(field=QQ):
    """Two vertices a, b with two parallel arrows a -> b."""
    q = Quiver(["a", "b"], [("alpha", "a", "b"), ("beta", "a", "b")])
    return AlgebraPresentation(q, field, [], loewy_bound=4, name="kronecker")


def three_kronecker(field=QQ):
    """Two vertices with three parallel arrows alpha, beta, gamma: a -> b."""
    q = Quiver(
        ["a", "b"],
        [("alpha", "a", "b"), ("beta", "a", "b"), ("gamma", "a", "b")],
    )
    return AlgebraPresentation(q, field, [], loewy_bound=4, name="three-kronecker")


def d4_subspace(field=QQ):
    """D4 with the three outer vertices mapping into the center a."""
    q = Quiver(
        ["a", "b", "c", "d"],
        [("beta", "b", "a"), ("gamma", "c", "a"), ("delta", "d", "a")],
    )
    return AlgebraPresentation(q, field, [], loewy_bound=3, name="d4")


def loop_beta(field=QQ):
    """One arrow a -> b plus a loop beta at b with beta^3 = 0."""
    q = Quiver(["a", "b"], [("alpha", "a", "b"), ("beta", "b", "b")])
    rels = [[(1, ("beta", "beta", "beta"))]]
    return AlgebraPresentation(q, field, rels, loewy_bound=4, name="loop-beta")


def loop_square(field=QQ):
    """One vertex with a loop x, relation x^2 = 0."""
    q = Quiver(["v"], [("x", "v", "v")])
    return AlgebraPresentation(q, field, [[(1, ("x", "x"))]], loewy_bound=2, name="loop-square")


def commuting_square_tower(field=QQ):
    """Vertices a, b, c; alpha, beta: a -> b; gamma, delta: b -> c;
    relations delta.alpha = 0, gamma.beta = 0, gamma.alpha = delta.beta."""
    q = Quiver(
        ["a", "b", "c"],
        [
            ("alpha", "a", "b"),
            ("beta", "a", "b"),
            ("gamma", "b", "c"),
            ("delta", "b", "c"),
        ],
    )
    rels = [
        [(1, ("alpha", "delta"))],
        [(1, ("beta", "gamma"))],
        [(1, ("alpha", "gamma")), (-1, ("beta", "delta"))],
    ]
    return AlgebraPresentation(q, field, rels, loewy_bound=3, name="tower")


def kronecker_regular_seed(alg):
    """(w0, v0): independent monos P(b) -> P(a); coker(w0) is regular length 2."""
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    homs = hom_space(pb, pa)
    if len(homs) != 2:
        raise QuivrepError("Hom(P(b), P(a)) must be 2-dimensional, got %d" % len(homs))
    return homs[0], homs[1]


def three_kronecker_warning_data(alg):
    """The two-dimensional module killed by beta and gamma, its cover data,
    and the maps f, g out of the syzygy that share H[2] but not H[3].

    f sends the beta-socle generator to the alpha-socle of a fresh cover and
    kills the gamma-socle generator; g additionally sends the gamma-socle
    generator to the beta-socle.
    """
    field = alg.field
    h = Rep(
        alg,
        {"a": 1, "b": 1},
        {
            "alpha": Mat(field, [[1]]),
            "beta": Mat(field, [[0]]),
            "gamma": Mat(field, [[0]]),
        },
    )
    ph, gen = projective(alg, "a")
    # cover q: e -> generator of H; alpha e -> its image, beta e, gamma e -> 0
    q = ModHom(
        ph,
        h,
        {"a": Mat(field, [[1]]), "b": Mat(field, [[1, 0, 0]])},
    )
    from .rep import kernel

    omega, w = kernel(q)  # spanned by beta e, gamma e (echelon order)
    f = ModHom(omega, ph, {"b": Mat(field, [[1, 0], [0, 0], [0, 0]])})
    g = ModHom(omega, ph, {"b": Mat(field, [[1, 0], [0, 1], [0, 0]])})
    return h, ph, q, omega, w, f, g


def d4_modules(alg):
    """U0 = S(a), the big indecomposable U1, the canonical monos, and the
    rigid cokernel data of the degeneration example."""
    field = alg.field
    u0 = Rep.simple(alg, "a")
    u1 = Rep(
        alg,
        {"a": 2, "b": 1, "c": 1, "d": 1},
        {
            "beta": Mat(field, [[1], [0]]),
            "gamma": Mat(field, [[0], [1]]),
            "delta": Mat(field, [[-1], [-1]]),
        },
    )
    mu_b = ModHom(u0, u1, {"a": Mat(field, [[1], [0]])})
    mu_c = ModHom(u0, u1, {"a": Mat(field, [[0], [1]])})
    mu_d = ModHom(u0, u1, {"a": Mat(field, [[-1], [-1]])})
    return u0, u1, mu_b, mu_c, mu_d


def d4_seed(alg, q_scalar=2):
    """(w0, v0) with coker(w0) the sincere rigid W and coker(v0) = W'."""
    u0, u1, mu_b, mu_c, mu_d = d4_modules(alg)
    field = alg.field
    w0 = mu_b + mu_c.scale(field.conv(q_scalar))
    v0 = mu_b
    return w0, v0
