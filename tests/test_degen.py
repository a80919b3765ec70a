import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivrep.decomp import are_isomorphic
from quivrep.degen import (
    DegenerationCertificate,
    check_rz,
    co_rz,
    cokernel_degeneration,
    eventual_splitting,
    make_steering_nilpotent,
    power_degeneration,
    rigid_cokernel_iso,
    rz_to_prufer,
    split_iff_split,
    steering_combinations_split,
)
from quivrep.errors import (
    BelowIndex,
    NotExact,
    NotMono,
    NotNilpotent,
    NotRigid,
    QuivrepError,
    ZeroCokernel,
)
from quivrep.ladder import build_ladder, chessboard
from quivrep.algebra import projective
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import ModHom, Rep, cokernel, direct_sum, hom_from_blocks, hom_space
from quivrep.squares import ShortExact, is_split_mono, pushout, pushout_factor
from quivrep import fixtures as fx
from test_block_maps import _random_rz


def _split_mono_rz(kronecker, kron_projectives, kron_regular):
    """The split-mono example: 0 -> U0 -> U0 + X -> coker -> 0."""
    pa, pb = kron_projectives
    mid, injs, projs = direct_sum([pa, pb])  # X = P(a), U = P(b)
    g = hom_space(pb, pa)[0]
    mono = g.then(injs[0])  # [g; 0] with zero steering
    y, proj = cokernel(mono)
    return check_rz(pb, pa, y, mono, proj)


def test_check_rz_trivial(kronecker, kron_projectives):
    pa, _ = kron_projectives
    zero = Rep.zero(kronecker)
    mid, injs, projs = direct_sum([pa, zero])
    rz = check_rz(zero, pa, pa, ModHom.zero_hom(zero, mid), projs[0])
    assert rz.nilpotency_index() == 0


def test_check_rz_split_mono_example(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    assert rz.nilpotency_index() == 1
    assert rz.steering.is_zero()


def test_check_rz_rejects_non_exact(kronecker, kron_projectives):
    pa, pb = kron_projectives
    mid, injs, projs = direct_sum([pa, pb])
    with pytest.raises(NotExact):
        check_rz(pb, pa, pa, ModHom.zero_hom(pb, mid), projs[0])


def test_make_steering_nilpotent_keeps_nilpotent(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    rz2 = make_steering_nilpotent(rz)
    assert rz2.u.dims == rz.u.dims
    assert rz2.nilpotency_index() is not None


def test_make_steering_nilpotent_invertible_steering(kronecker, kron_projectives):
    pa, pb = kron_projectives
    mid, injs, projs = direct_sum([pa, pb])
    mono = ModHom.identity(pb).then(injs[1])  # [0; 1]: invertible steering
    y, proj = cokernel(mono)
    assert y.dims == pa.dims
    rz = check_rz(pb, pa, y, mono, proj)
    assert rz.nilpotency_index() is None
    rz2 = make_steering_nilpotent(rz)
    assert rz2.u.is_zero()
    assert are_isomorphic(rz2.y, rz2.x).verdict == "isomorphic"


def test_make_steering_nilpotent_mixed_blocks(kron_projectives, kron_regular):
    # block-diagonal steering: a nilpotent part on P(b)^copies, zero on one
    # copy and the Jordan block of index 2 on two, beside an invertible part,
    # the identity on H; the generalized kernel is all of P(b)^copies, not
    # only the kernel of the steering map
    pa, pb = kron_projectives
    h = kron_regular
    for copies in (1, 2):
        u_sum = direct_sum([pb] * copies + [h])
        u = u_sum[0]
        mid, injs, projs = direct_sum([pa, u])
        blocks = {(copies, copies): ModHom.identity(h)}
        if copies == 2:
            blocks[(0, 1)] = ModHom.identity(pb)  # (x1, x2) -> (x2, 0)
        phi = hom_from_blocks(u_sum, u_sum, blocks)
        # g is injective on ker(phi), the first copy of P(b), so [g; phi] is mono
        g = hom_from_blocks(u_sum, pa, {(0, 0): hom_space(pb, pa)[0]})
        mono = g.then(injs[0]) + phi.then(injs[1])
        assert mono.is_injective()
        y, proj = cokernel(mono)
        rz = check_rz(u, pa, y, mono, proj)
        assert rz.nilpotency_index() is None
        rz2 = make_steering_nilpotent(rz)
        # the invertible H-block is cancelled
        assert rz2.u.dims == {v: copies * d for v, d in pb.dims.items()}
        assert rz2.nilpotency_index() == copies
        assert rz2.y == rz.y and rz2.x == rz.x


def test_rz_to_prufer_zero_steering_module(kronecker, kron_projectives):
    pa, _ = kron_projectives
    zero = Rep.zero(kronecker)
    mid, injs, projs = direct_sum([pa, zero])
    rz = check_rz(zero, pa, pa, ModHom.zero_hom(zero, mid), projs[0])
    cert = rz_to_prufer(rz, depth=3)
    for n in range(1, 4):
        yn = cert.truncation(n).rep
        xn = direct_sum([pa] * n)[0] if n > 1 else pa
        assert are_isomorphic(yn, xn).verdict == "isomorphic"


def test_rz_to_prufer_requires_nilpotent(kronecker, kron_projectives):
    pa, pb = kron_projectives
    mid, injs, projs = direct_sum([pa, pb])
    mono = ModHom.identity(pb).then(injs[1])
    y, proj = cokernel(mono)
    rz = check_rz(pb, pa, y, mono, proj)
    with pytest.raises(NotNilpotent):
        rz_to_prufer(rz)


def test_eventual_splitting_chain(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    cert = rz_to_prufer(rz, depth=5)
    assert cert.index == 1
    with pytest.raises(BelowIndex):
        eventual_splitting(cert, 0)
    for n in range(1, 5):
        omega = eventual_splitting(cert, n)
        assert omega.is_isomorphism()
        target = direct_sum([cert.truncation(n).rep, rz.x])[0]
        assert omega.source == target
        assert omega.target == cert.truncation(n + 1).rep


def test_a_certificate_too_shallow_for_its_index_is_refused(kron_projectives, kron_regular):
    rz = _split_mono_rz(None, kron_projectives, kron_regular)
    cert = rz_to_prufer(rz, depth=3)
    with pytest.raises(QuivrepError, match="^ladder too shallow"):
        eventual_splitting(cert, 3)
    # the same ladder, with an index at its top stage: the dual sequence
    # needs stage index + 1, which eventual_splitting refuses first
    top = DegenerationCertificate(rz, 3, cert.ladder, cert.sums, cert.h1_to_y)
    with pytest.raises(QuivrepError, match="^ladder too shallow"):
        co_rz(top)


def test_power_degeneration_stages(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    cert = rz_to_prufer(rz, depth=4)
    for n in (2, 3):
        stage = power_degeneration(cert, n)
        assert stage.u == rz.u
        assert stage.y == cert.truncation(n).rep


def test_co_rz_shape(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    cert = rz_to_prufer(rz, depth=4)
    dual = co_rz(cert)
    yt = cert.truncation(cert.index).rep
    assert dual.a == rz.y
    assert dual.c == yt
    assert dual.b == direct_sum([yt, rz.x])[0]


def test_steering_combinations(kronecker, kron_projectives, kron_regular):
    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    combos = steering_combinations_split(rz)
    assert combos == {0: True, 1: True, -1: True, 2: True}


def test_cokernel_degeneration_equal_seeds(d4, d4_seed):
    w0, _ = d4_seed
    rz, n0 = cokernel_degeneration(w0, w0)
    w_mod = cokernel(w0)[0]
    assert are_isomorphic(rz.y, w_mod).verdict == "isomorphic"
    assert n0 <= 2


def test_cokernel_degeneration_d4(d4, d4_seed):
    w0, v0 = d4_seed
    rz, n0 = cokernel_degeneration(w0, v0)
    assert n0 == 2
    w_mod = cokernel(w0)[0]
    wp_mod = cokernel(v0)[0]
    assert rz.x == w_mod
    assert rz.u.dims == {"a": 3, "b": 2, "c": 2, "d": 2}
    assert are_isomorphic(rz.y, wp_mod).verdict == "isomorphic"


def test_cokernel_degeneration_not_rigid(kron_seed):
    w0, v0 = kron_seed
    with pytest.raises(NotRigid):
        cokernel_degeneration(w0, v0)


def test_rigid_cokernel_iso_identity(d4_seed):
    w0, _ = d4_seed
    witness = rigid_cokernel_iso(w0, w0)
    assert witness.is_isomorphism()


def test_rigid_cokernel_iso_hereditary_projective(kron_projectives, kronecker):
    # two split monos P(b) -> P(b) + P(a) with the same rigid cokernel P(a)
    pa, pb = kron_projectives
    s, injs, projs = direct_sum([pb, pa])
    w = injs[0]
    v = injs[0].scale(QQ.conv(3))
    witness = rigid_cokernel_iso(w, v)
    assert witness.is_isomorphism()
    assert witness.source.dims == pa.dims


def test_rigid_cokernel_iso_d4_reports_failing_side(d4_seed):
    w0, v0 = d4_seed
    with pytest.raises(NotRigid) as err:
        rigid_cokernel_iso(w0, v0)
    assert "coker(v0)" in str(err.value)


def test_split_iff_split_trivial_cases(kron_projectives, kronecker):
    pa, pb = kron_projectives
    s, injs, _ = direct_sum([pb, pa])
    w = injs[0]
    assert split_iff_split(w, w) == (True, True)


def test_split_iff_split_nonsplit(d4_seed):
    w0, _ = d4_seed
    assert split_iff_split(w0, w0) == (False, False)


def test_split_iff_split_not_rigid(kron_seed):
    w0, v0 = kron_seed
    with pytest.raises(NotRigid):
        split_iff_split(w0, v0)


def _single_fault_seeds(kron_projectives, d4_seed):
    """Seeds w0, v0 that each break one hypothesis of the rigid-cokernel
    results.  The Kronecker seeds start from the split injection P(b) ->
    P(b) + P(a), whose cokernel P(a) is rigid; D4's seed has coker(w0)
    rigid and coker(v0) not."""
    pa, pb = kron_projectives
    split = direct_sum([pb, pa])[1][0]
    zero = ModHom.zero_hom(pb, split.target)
    wider = direct_sum([pb, pa, pa])[1][0]
    iso = ModHom.identity(pb)
    d4_w0, d4_v0 = d4_seed
    return {
        "w0 not injective": (zero, split),
        "v0 not injective": (split, zero),
        "endpoints differ": (split, wider),
        "zero cokernel": (iso, iso.scale(QQ.conv(3))),
        "equal seeds, zero cokernel": (iso, iso),
        "coker(w0) not rigid": (d4_v0, d4_w0),
        "coker(v0) not rigid": (d4_w0, d4_v0),
    }


SEED_CONSUMERS = [
    ("cokernel_degeneration", cokernel_degeneration),
    ("rigid_cokernel_iso", rigid_cokernel_iso),
    ("split_iff_split", split_iff_split),
    # depth 1 has no rung square, so only the seed checks can raise
    ("chessboard", lambda w0, v0: chessboard(w0, v0, depth=1)),
]

# the exact error type each consumer raises on each seed, in the order of
# SEED_CONSUMERS; None where the seed meets every hypothesis the consumer has.
# split_iff_split's theorem is about maps U0 -> U1, so it rejects seeds with
# different endpoints like the others.
SINGLE_FAULTS = [
    ("w0 not injective", [NotMono, NotMono, NotMono, NotMono]),
    ("v0 not injective", [NotMono, NotMono, NotMono, NotMono]),
    ("endpoints differ", [QuivrepError, QuivrepError, QuivrepError, QuivrepError]),
    ("zero cokernel", [ZeroCokernel, ZeroCokernel, None, ZeroCokernel]),
    ("equal seeds, zero cokernel", [ZeroCokernel, ZeroCokernel, None, ZeroCokernel]),
    ("coker(w0) not rigid", [NotRigid, NotRigid, NotRigid, None]),
    ("coker(v0) not rigid", [None, NotRigid, NotRigid, None]),
]


@pytest.mark.parametrize("fault, raised", SINGLE_FAULTS, ids=[f for f, _ in SINGLE_FAULTS])
def test_a_single_fault_seed_raises_the_error_of_its_hypothesis(
    kron_projectives, d4_seed, fault, raised
):
    w0, v0 = _single_fault_seeds(kron_projectives, d4_seed)[fault]
    for (name, consumer), want in zip(SEED_CONSUMERS, raised):
        try:
            consumer(w0, v0)
            got = None
        except QuivrepError as exc:
            got = type(exc)
        assert got is want, name


def test_pipeline_over_prime_field():
    # the whole certificate stack is field agnostic; run it over GF(3)
    import random as _random

    from quivrep.linalg import GF
    from quivrep.suites import _random_module, _random_mono

    alg = fx.kronecker(GF(3))
    rng = _random.Random(5)
    done = 0
    while done < 3:
        u = _random_module(alg, rng, 2)
        x = _random_module(alg, rng, 2)
        if u.total_dim() == 0:
            continue
        mid, injs, projs = direct_sum([x, u])
        mono = _random_mono(u, mid, rng)
        if mono is None:
            continue
        y, proj = cokernel(mono)
        rz = make_steering_nilpotent(check_rz(u, x, y, mono, proj))
        cert = rz_to_prufer(rz, depth=4)
        for n in range(cert.index, 4):
            assert eventual_splitting(cert, n).is_isomorphism()
        assert co_rz(cert).exactness_failure() is None
        done += 1


def test_corollary_chain_witnesses(kronecker, kron_projectives, kron_regular):
    # Y[n] ~ Y[t] + X^(n-t) with an explicit composed isomorphism
    from quivrep.rep import hom_from_blocks

    rz = _split_mono_rz(kronecker, kron_projectives, kron_regular)
    cert = rz_to_prufer(rz, depth=5)
    t = cert.index
    parts = [cert.truncation(t).rep]
    psi = ModHom.identity(parts[0])
    for k in range(t, 5):
        omega = eventual_splitting(cert, k)
        src_parts = parts + [rz.x]
        src = direct_sum(src_parts)
        mid = direct_sum([cert.truncation(k).rep, rz.x])
        old = direct_sum(parts)
        blocks = {}
        for j in range(len(parts)):
            blocks[(0, j)] = old[1][j].then(psi)
        blocks[(1, len(parts))] = ModHom.identity(rz.x)
        step = hom_from_blocks(src, mid, blocks)
        psi = step.then(omega)
        parts = src_parts
        assert psi.is_isomorphism()
        assert psi.target == cert.truncation(k + 1).rep


def test_once_split_always_split_d4(d4_seed):
    w0, v0 = d4_seed
    lad = build_ladder(w0, v0, depth=4)
    flags = [is_split_mono(w) is not None for w in lad.w_maps]
    assert flags == [False, False, True, True]


def _rz_on_its_cokernel(u, x, mono):
    y, epi = cokernel(mono)
    return check_rz(u, x, y, mono, epi)


def _steered_and_unsteered_rz(alg):
    """Two RZ sequences from a mono iota: S -> T with S simple: U = S + T,
    X = T, g the T-projection and steering iota (square zero); and U = S,
    X = T, g = iota and zero steering."""
    if alg.name == "kronecker":
        t, s = projective(alg, "a")[0], projective(alg, "b")[0]
        iota = hom_space(s, t)[0]
    else:
        s, t, iota, _, _ = fx.d4_modules(alg)
    u_sum = direct_sum([s, t])
    blocks = {(0, 1): ModHom.identity(t), (1, 0): iota.then(u_sum[1][1])}
    steered = hom_from_blocks(u_sum, direct_sum([t, u_sum[0]]), blocks)
    unsteered = iota.then(direct_sum([t, s])[1][0])
    return _rz_on_its_cokernel(u_sum[0], t, steered), _rz_on_its_cokernel(s, t, unsteered)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("make", [fx.kronecker, fx.d4_subspace], ids=["kr", "d4"])
def test_every_rung_of_an_rz_certificate_is_the_generic_pushout(make, field):
    steered, unsteered = _steered_and_unsteered_rz(make(field))
    assert steered.nilpotency_index() == 2 and unsteered.steering.is_zero()
    for rz in (steered, unsteered):
        lad = rz_to_prufer(rz, depth=4).ladder
        for n in range(lad.depth - 1):
            sq = pushout(lad.w_maps[n], lad.v_maps[n])
            kappa = pushout_factor(sq, lad.v_maps[n + 1], lad.w_maps[n + 1])
            assert kappa.is_isomorphism()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_a_random_rz_splits_from_its_index_on_and_has_an_exact_dual(data):
    # Kronecker and D4 over Q and GF(3): Y[n+1] ~ Y[n] + X for every n from
    # the nilpotency index on, and the dual sequence is exact.  A random
    # steering map is mostly invertible, and make_steering_nilpotent then
    # cancels all of U; so half the draws map U by the drawn mono into
    # X' = X + U instead, with zero steering.
    rz = _random_rz(data)
    if data.draw(st.booleans()):
        mono = rz.mono.then(direct_sum([rz.middle, rz.u])[1][0])
        y, epi = cokernel(mono)
        rz = check_rz(rz.u, rz.middle, y, mono, epi)
    rz = make_steering_nilpotent(rz)
    assume(not rz.y.is_zero())  # the ladder's seed needs a nonzero cokernel
    cert = rz_to_prufer(rz, depth=3)
    depth = cert.ladder.depth
    for n in range(cert.index, depth):
        omega = eventual_splitting(cert, n)
        assert omega.source == direct_sum([cert.truncation(n).rep, rz.x])[0]
        assert omega.target == cert.truncation(n + 1).rep
        assert omega.commutes() and omega.is_isomorphism()
    dual = co_rz(cert)
    assert isinstance(dual, ShortExact) and dual.exactness_failure() is None
    assert (dual.a, dual.c) == (rz.y, cert.truncation(cert.index).rep)
    assert dual.b == eventual_splitting(cert, cert.index).source
