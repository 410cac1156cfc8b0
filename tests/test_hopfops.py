import cmath
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson import DeformParams, ParameterError, Window, build_rep, q_power
from qboson.fockrep import RELATIONS
from qboson.hopfops import (_DEG, HopfFamily, _coproduct_blocks, _mask, _pair_op, _pair_sectors,
                            _unit, _word_blocks, antipode_op, check_coproduct_relations,
                            check_hopf_axioms, counit, default_axiom_words, qbar_family, qpow,
                            rep_word, sweedler_letter, word)
from qboson.report import verdict_of
from test_fockrep import window_block, window_indices, windowed_residual


def sweedler_expand(w, fam):
    """Delta(w) as a sum of tensor products of generator words: the whole
    word's Sweedler sum, expanded letter by letter."""
    terms = [(1.0 + 0.0j, word(), word())]
    for ltr in w.letters:
        expansion = sweedler_letter(ltr, fam)
        terms = [(c0 * c1, u0 * u1, v0 * v1)
                 for (c0, u0, v0) in terms for (c1, u1, v1) in expansion]
    return terms


def coproduct_op(w, rep1, rep2, fam):
    """Delta(w) on rep1 (x) rep2 as a dense D1 D2 x D1 D2 matrix: the product
    of its letters' images, each the Kronecker sum of the letter's Sweedler
    terms (q-powers at the family's parameters)."""
    return dense_word_image(w, (rep1, rep2), fam.params,
                            lambda ltr: [(c, (u, v)) for c, u, v in sweedler_letter(ltr, fam)])


def scatter(blocks, dims, deg):
    """The dense D1 D2 x D1 D2 matrix of a degree-deg block stack."""
    i, j, _, _ = _pair_sectors(*dims)
    flat = i * dims[1] + j
    rows = flat[np.clip(np.arange(len(i)) + deg, 0, len(i) - 1)]
    rows, cols = np.broadcast_arrays(rows[:, :, None], flat[:, None, :])
    mask, out = _mask(dims, deg), np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    out[rows[mask], cols[mask]] = blocks[mask]
    return out


def opposite_coproduct_op(w, rep1, rep2, fam):
    """T.Delta: the dense coproduct conjugated by the tensor swap (D1 = D2),
    <i j| T.Delta |k l> = <j i| Delta |l k>."""
    if rep1.dim != rep2.dim:
        raise ParameterError("opposite coproduct needs equal factor dimensions")
    D = rep1.dim
    delta = coproduct_op(w, rep2, rep1, fam)
    return delta.reshape(D, D, D, D).transpose(1, 0, 3, 2).reshape(D * D, D * D)


def dense_word_image(w, reps, p, letter_terms):
    """w's matrix on the tensor product of reps (q-powers at p): its letters'
    images multiplied from the identity, each the Kronecker sum of the
    letter's terms letter_terms(ltr) = [(c, legs)]."""
    out = np.eye(math.prod(r.dim for r in reps), dtype=complex)
    for ltr in w.letters:
        out = out @ sum(c * reduce(np.kron, (rep_word(u, r, p) for u, r in zip(legs, reps)))
                        for c, legs in letter_terms(ltr))
    return out


def closed_coproduct_letter(letter, rep1, rep2, fam):
    """Delta(letter) on rep1 (x) rep2 as a block stack, from the closed two-leg
    formulas of the generators written out entry by entry here, independent
    of the Sweedler table (sweedler_letter)."""
    p, n1, n2 = fam.params, rep1.n_diag(), rep2.n_diag()
    if letter == "N":
        entries = lambda ir, jr, ic, jc: _unit(ir, jr, ic, jc) * (n1[ir] + n2[jr] + fam.beta_const)
    elif isinstance(letter, tuple):  # q^{sN}: exact exponential of Delta(N)
        entries = lambda ir, jr, ic, jc: _unit(ir, jr, ic, jc) * q_power(
            letter[1] * (n1[ir] + n2[jr] + fam.beta_const), p)
    elif letter == "a":
        entries = lambda ir, jr, ic, jc: fam.phase_lower_gen * (
            rep1.matA[ir, ic] * (jr == jc) * q_power(fam.m * n2[jr], p)
            + fam.sg * 1j * (ir == ic) * q_power(fam.r * n1[ir], p) * rep2.matA[jr, jc])
    else:
        entries = lambda ir, jr, ic, jc: fam.phase_raise_gen * (
            rep1.matAdag[ir, ic] * (jr == jc) * q_power(-fam.r * n2[jr], p)
            + fam.sg * 1j * (ir == ic) * q_power(-fam.m * n1[ir], p) * rep2.matAdag[jr, jc])
    return _pair_op((rep1.dim, rep2.dim), _DEG.get(letter, 0), entries)


def qbar_coproduct_op(w, rep1, rep2, fam):
    """The dense coproduct of qbar_family(fam) on the same rep matrices."""
    return coproduct_op(w, rep1, rep2, qbar_family(fam))


def canonical_oracle(rep, p):
    """Hand-built canonical coproduct matrices, independent of HopfFamily."""
    D = rep.dim
    I = np.eye(D, dtype=complex)
    iag = p.ialpha_over_gamma
    qd = lambda s: np.diag(q_power(s * rep.n_diag(), p))
    ph = np.exp(-1j * p.alpha / 2)
    dN = np.kron(rep.matN, I) + np.kron(I, rep.matN) - iag * np.eye(D * D)
    da = (np.kron(rep.matA, qd(0.5)) + 1j * np.kron(qd(-0.5), rep.matA)) * ph
    dad = (np.kron(rep.matAdag, qd(0.5)) + 1j * np.kron(qd(-0.5), rep.matAdag)) * ph
    return dN, da, dad


def delta2_terms(ltr, fam, side):
    """Delta_2 of one letter as three-leg terms (c, legs): Delta applied again
    to the first leg of Delta(ltr) ("left") or to the last ("right")."""
    out = []
    for c, u, v in sweedler_expand(word(ltr), fam):
        for c2, x, y in sweedler_expand(u if side == "left" else v, fam):
            out.append((c * c2, (x, y, v) if side == "left" else (u, x, y)))
    return out


def dense_delta2(w, rep, fam, side):
    """Delta_2(w) as a D^3 x D^3 matrix: the dense letter-image product."""
    return dense_word_image(w, (rep,) * 3, fam.params, lambda ltr: delta2_terms(ltr, fam, side))


def dense_coassoc(w, rep, fam, window):
    """(left, right, normalized residual) of coassociativity, dense."""
    left, right = dense_delta2(w, rep, fam, "left"), dense_delta2(w, rep, fam, "right")
    _, nrm = windowed_residual(left, right, (rep.dim,) * 3, window)
    return left, right, nrm


def sweedler_counit_antipode(w, rep, fam, window):
    """Counit and antipode residuals from the expanded Sweedler sum of the whole
    word: each term's legs are full word matrices, contracted by the counit or
    multiplied through the antipode, and the terms summed.  Returns, per side,
    the normalized residual and the rounding scale of the sum, sum_t |c_t|
    ||X_t||_F ||Y_t||_F over its terms X_t Y_t, normalized the same way."""
    D = rep.dim
    leg = lambda u: rep_word(u, rep, fam.params)
    expansion = sweedler_expand(w, fam)
    target, eps = leg(w), counit(w, fam) * np.eye(D, dtype=complex)
    sides = {
        "counit_left": ([(c * counit(u, fam), np.eye(D), leg(v)) for c, u, v in expansion],
                        target),
        "counit_right": ([(c * counit(v, fam), leg(u), np.eye(D)) for c, u, v in expansion],
                         target),
        "antipode_left": ([(c, antipode_op(u, rep, fam), leg(v)) for c, u, v in expansion], eps),
        "antipode_right": ([(c, leg(u), antipode_op(v, rep, fam)) for c, u, v in expansion], eps),
    }
    out = {}
    for tag, (terms, want) in sides.items():
        _, nrm = windowed_residual(sum(c * X @ Y for c, X, Y in terms), want, (D,), window)
        scale = sum(abs(c) * np.linalg.norm(X) * np.linalg.norm(Y) for c, X, Y in terms)
        out[tag] = nrm, scale / max(1.0, np.linalg.norm(window_block(want, (D,), window)))
    return out


def tensor_swap(D1, D2):
    """Permutation matrix sending |i>|j> to |j>|i>."""
    P = np.zeros((D1 * D2, D1 * D2))
    for i in range(D1):
        for j in range(D2):
            P[j * D1 + i, i * D2 + j] = 1.0
    return P


def test_family_validation(params_real):
    with pytest.raises(ParameterError):
        HopfFamily(m=0.3, K=0, sign="lower", params=params_real)
    with pytest.raises(ParameterError):
        HopfFamily(m=0.5, K=0, sign="down", params=params_real)


def test_canonical_beta_const(params):
    fam = HopfFamily.canonical(params)
    assert fam == HopfFamily(m=0.5, K=-2 * params.kappa - 1, sign="lower", params=params)
    assert fam.beta_const == pytest.approx(-params.ialpha_over_gamma)


def test_canonical_matches_oracle(params):
    rep = build_rep(5, 0.5, params)
    fam = HopfFamily.canonical(params)
    dN, da, dad = canonical_oracle(rep, params)
    assert np.abs(coproduct_op(word("N"), rep, rep, fam) - dN).max() < 1e-12
    assert np.abs(coproduct_op(word("a"), rep, rep, fam) - da).max() < 1e-12
    assert np.abs(coproduct_op(word("adag"), rep, rep, fam) - dad).max() < 1e-12


def test_general_grid_specializes_to_canonical():
    # the canonical grid point must reproduce the canonical matrices for
    # both branch integers
    for kappa in (0, 1):
        p = DeformParams(q=1.3, kappa=kappa)
        rep = build_rep(5, 0.5, p)
        fam = HopfFamily(m=0.5, K=-2 * kappa - 1, sign="lower", params=p)
        dN, da, dad = canonical_oracle(rep, p)
        for w, target in ((word("N"), dN), (word("a"), da), (word("adag"), dad)):
            assert np.abs(coproduct_op(w, rep, rep, fam) - target).max() <= 1e-12


def test_coproduct_n_diagonal(params):
    rep1 = build_rep(4, 0.5, params)
    rep2 = build_rep(3, 1.0, params)
    fam = HopfFamily.canonical(params)
    got = coproduct_op(word("N"), rep1, rep2, fam)
    want = (np.add.outer(rep1.n_diag(), rep2.n_diag()).reshape(-1)
            - params.ialpha_over_gamma)
    assert np.allclose(got, np.diag(want))


@pytest.mark.parametrize("point", [None, (1.0, 0, "upper"), (-0.5, 1, "lower")],
                         ids=["canonical", "m1_K0_upper", "m-0.5_K1_lower"])
def test_coproduct_matches_two_leg_formulas(params, point):
    # the dense oracle comes from the Sweedler table; the closed per-generator
    # stacks, scattered to dense, are its independent cross-check
    if point is None:
        fam = HopfFamily.canonical(params)
    else:
        fam = HopfFamily(m=point[0], K=point[1], sign=point[2], params=params)
    rep1, rep2 = build_rep(5, 0.5, params), build_rep(4, 1.0, params)
    closed = lambda ltr: closed_coproduct_letter(ltr, rep1, rep2, fam)
    letters = ("N", "a", "adag", qpow(0.5), qpow(-1.0))
    for letter, deg in zip(letters, (0, -1, 1, 0, 0)):
        got = coproduct_op(word(letter), rep1, rep2, fam)
        want = scatter(closed(letter), (5, 4), deg)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), letter
    got = coproduct_op(word(*letters), rep1, rep2, fam)
    want = scatter(_word_blocks(word(*letters), (5, 4), closed), (5, 4), 0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("q", (1.3, 0.7 + 0.2j))
@pytest.mark.parametrize("c", (0.0, 0.5))
def test_coproduct_relations_match_dense_oracle(q, c):
    # every row of the relation table on two legs, against the same table read
    # through the dense D^2 x D^2 coproduct images
    p, D, win = DeformParams(q=q), 6, Window(3, guard=1)
    fam, rep = HopfFamily.canonical(p), build_rep(D, c, p)
    dn = np.diag(coproduct_op(word("N"), rep, rep, fam))
    for rpt, name in zip(check_coproduct_relations(fam, rep, RELATIONS, win), RELATIONS):
        relation = RELATIONS[name]
        lhs = sum(k * coproduct_op(word(*letters), rep, rep, fam)
                  for k, letters in relation.terms(p))
        rhs = (coproduct_op(word(relation.rhs), rep, rep, fam) if isinstance(relation.rhs, str)
               else np.diag(relation.rhs(dn, p)))
        raw, nrm = windowed_residual(lhs, rhs, (D, D), win)
        assert rpt.identity == f"coproduct_relation_{name}"
        assert (rpt.dims, rpt.window) == ([D, D], 3)
        assert rpt.params == {"q": str(p.q), "c": str(complex(c)), "m": 0.5, "K": -1,
                              "sign": "lower"}
        assert abs(rpt.raw_residual - raw) <= 1e-12 * max(raw, 1.0), name
        assert abs(rpt.normalized_residual - nrm) <= 1e-12 * max(nrm, 1.0), name


@pytest.mark.parametrize("q", (1.3, 0.7 + 0.2j, 2.1, 1.05, 0.6 + 0.8j, 1.001))
@pytest.mark.parametrize("kappa", (0, 1))
def test_coproduct_respects_only_r1_and_ry(q, kappa):
    # Delta, with Delta(N) = N (x) 1 + 1 (x) N + beta, is an algebra map of R0,
    # R1 and Ry on the c = 1/2 square, and of none of R2-R5 on the c = 0 Fock
    # square; Delta(C) leaves the Hopf ideal
    p = DeformParams(q=q, kappa=kappa)
    fam, win = HopfFamily.canonical(p), Window(4, guard=1)
    reports = [*check_coproduct_relations(fam, build_rep(12, 0.0, p), ("R2", "R3", "R4", "R5"),
                                          win),
               *check_coproduct_relations(fam, build_rep(12, 0.5, p), ("R0", "R1", "Ry", "C"),
                                          win)]
    res = {r.identity.removeprefix("coproduct_relation_"): r.normalized_residual for r in reports}
    assert max(res["R0"], res["R1"], res["Ry"]) <= 1e-12, res
    assert min(res[name] for name in ("R2", "R3", "R4", "R5", "C")) >= 1e-3, res


def test_coproduct_rejects_mismatched_params():
    # DeformParams is q and kappa: sharing q alone is not enough
    p1 = DeformParams(q=1.3)
    fam = HopfFamily.canonical(p1)
    for p2 in (DeformParams(q=1.4), DeformParams(q=1.3, kappa=1)):
        with pytest.raises(ParameterError, match="share DeformParams"):
            _coproduct_blocks("N", fam, build_rep(4, 0.5, p1), build_rep(4, 0.5, p2))


def test_coproduct_homomorphism(params):
    rep = build_rep(7, 0.5, params)
    fam = HopfFamily.canonical(params)
    rng = np.random.default_rng(3)
    gens = np.array(["N", "a", "adag"])
    win = Window(3, guard=3)
    for _ in range(8):
        u = word(*rng.choice(gens, 2))
        v = word(*rng.choice(gens, 2))
        duv = coproduct_op(u * v, rep, rep, fam)
        prod = coproduct_op(u, rep, rep, fam) @ coproduct_op(v, rep, rep, fam)
        _, nrm = windowed_residual(duv, prod, (7, 7), win)
        assert nrm <= 1e-12


def test_counit_values(params):
    fam = HopfFamily.canonical(params)
    assert counit(word("a"), fam) == 0
    assert counit(word("adag"), fam) == 0
    assert counit(word("N"), fam) == pytest.approx(params.ialpha_over_gamma)
    assert counit(word("a", "adag"), fam) == 0
    assert counit(word(), fam) == 1
    # q-power letters pick up exp(i s alpha)
    got = counit(word(qpow(2.0)), fam)
    assert got == pytest.approx(np.exp(2j * params.alpha))


def test_antipode_generators(params):
    rep = build_rep(6, 0.5, params)
    fam = HopfFamily.canonical(params)
    sa = antipode_op(word("a"), rep, fam)
    assert np.allclose(sa, -q_power(-0.5, params) * rep.matA)
    sad = antipode_op(word("adag"), rep, fam)
    assert np.allclose(sad, -q_power(0.5, params) * rep.matAdag)
    sn = antipode_op(word("N"), rep, fam)
    want = -rep.matN + 2 * params.ialpha_over_gamma * np.eye(6)
    assert np.allclose(sn, want)


def test_antipode_squared_on_a(params):
    # S(S(a)) = q**(-1) a ... S squares to conjugation by a group-like
    rep = build_rep(6, 0.5, params)
    fam = HopfFamily.canonical(params)
    sa = antipode_op(word("a"), rep, fam)
    # apply S to the scalar multiple: S(c*a) = c*S(a)
    ssa = -q_power(-0.5, params) * sa
    assert np.allclose(ssa, q_power(-1.0, params) * rep.matA)


def test_antipode_antihomomorphism(params):
    rep = build_rep(7, 0.5, params)
    fam = HopfFamily.canonical(params)
    rng = np.random.default_rng(5)
    gens = np.array(["N", "a", "adag"])
    win = Window(2, guard=4)
    for _ in range(8):
        u = word(*rng.choice(gens, 2))
        v = word(*rng.choice(gens, 2))
        lhs = antipode_op(u * v, rep, fam)
        rhs = antipode_op(v, rep, fam) @ antipode_op(u, rep, fam)
        _, nrm = windowed_residual(lhs, rhs, (7,), win)
        assert nrm <= 1e-12


def test_counit_of_antipode(params):
    # eps(S(w)) = eps(w), computed letterwise from the antipode images
    fam = HopfFamily.canonical(params)

    def eps_of_s_letter(letter):
        if letter in ("a", "adag"):
            return 0.0 + 0.0j
        eps_sn = -fam.counit_N() - 2 * fam.beta_const  # eps applied to S(N)
        if letter == "N":
            return eps_sn
        return complex(np.exp(letter[1] * eps_sn * params.gamma))

    for w in default_axiom_words(2) + [word(qpow(1.0), "N"), word(qpow(-0.5))]:
        got = np.prod([eps_of_s_letter(l) for l in reversed(w.letters)])
        assert got == pytest.approx(counit(w, fam), abs=1e-13)


def test_opposite_coproduct(params):
    rep = build_rep(5, 0.5, params)
    fam = HopfFamily.canonical(params)
    P = tensor_swap(5, 5)
    assert np.allclose(P @ P, np.eye(25))
    dn = coproduct_op(word("N"), rep, rep, fam)
    assert np.allclose(opposite_coproduct_op(word("N"), rep, rep, fam), dn)
    da = coproduct_op(word("a"), rep, rep, fam)
    assert np.allclose(opposite_coproduct_op(word("a"), rep, rep, fam), P @ da @ P)


def test_qbar_coproduct(params):
    rep = build_rep(5, 0.5, params)
    fam = HopfFamily.canonical(params)
    iag = params.ialpha_over_gamma
    got = qbar_coproduct_op(word("N"), rep, rep, fam)
    want = (np.add.outer(rep.n_diag(), rep.n_diag()).reshape(-1) + iag)
    assert np.allclose(got, np.diag(want))
    # differs from the direct coproduct by the sign of the constant
    dn = coproduct_op(word("N"), rep, rep, fam)
    assert np.abs(got - dn).max() > 0.1
    # lowering leg dressed at 1/q: a (x) qbar^{N/2} = a (x) q^{-N/2}
    got_a = qbar_coproduct_op(word("a"), rep, rep, fam)
    pbar = params.inverted()
    qd = lambda s, pp: np.diag(q_power(s * rep.n_diag(), pp))
    ph = np.exp(-1j * pbar.alpha / 2)
    want_a = (np.kron(rep.matA, qd(0.5, pbar))
              + 1j * np.kron(qd(-0.5, pbar), rep.matA)) * ph
    assert np.allclose(got_a, want_a)


def test_delta2_on_n(params):
    # three legs: sum of N's minus twice the structure constant, either way
    rep = build_rep(4, 0.5, params)
    fam = HopfFamily.canonical(params)
    n = rep.n_diag()
    want = (n[:, None, None] + n[None, :, None] + n[None, None, :]
            - 2 * params.ialpha_over_gamma).reshape(-1)
    for side in ("left", "right"):
        assert np.allclose(dense_delta2(word("N"), rep, fam, side), np.diag(want))


def test_coassociativity_of_a(params):
    rep = build_rep(5, 0.5, params)
    fam = HopfFamily.canonical(params)
    left = dense_delta2(word("a"), rep, fam, "left")
    right = dense_delta2(word("a"), rep, fam, "right")
    _, nrm = windowed_residual(left, right, (5, 5, 5), Window(3, guard=1))
    assert nrm <= 1e-12


def test_antipode_axiom_on_n_explicit(params):
    # m(S (x) id) Delta(N) = S(N) + N - i alpha/gamma = (i alpha/gamma) I
    rep = build_rep(5, 0.5, params)
    fam = HopfFamily.canonical(params)
    acc = sum(c * antipode_op(u, rep, fam) @ rep_word(v, rep)
              for c, u, v in sweedler_expand(word("N"), fam))
    want = params.ialpha_over_gamma * np.eye(5)
    assert np.abs(acc - want).max() <= 1e-12


@pytest.mark.parametrize("m", [-0.5, 0.5, 1.0])
@pytest.mark.parametrize("K", [-1, 0, 1])
@pytest.mark.parametrize("sign", ["upper", "lower"])
def test_axioms_full_grid_on_generators(params_real, m, K, sign):
    rep = build_rep(5, 0.5, params_real)
    fam = HopfFamily(m=m, K=K, sign=sign, params=params_real)
    words = default_axiom_words(1)
    for rep_out in check_hopf_axioms(fam, rep, words):
        assert rep_out.normalized_residual <= 1e-10, rep_out.identity


def test_axioms_canonical_words(params):
    rep = build_rep(6, 0.5, params)
    fam = HopfFamily.canonical(params)
    words = [word("a", "adag"), word("adag", "N", "a")]
    for rep_out in check_hopf_axioms(fam, rep, words):
        assert rep_out.normalized_residual <= 1e-10, rep_out.identity


def test_family_respects_symmetrized_relation(params_real):
    # Delta must be an algebra map for the defining relation:
    # [Delta(a), Delta(adag)] = [Delta(N)+1/2] - [Delta(N)-1/2]
    from qboson.qscalars import q_number
    rep = build_rep(8, 0.5, params_real)
    for m, K, sign in ((0.5, -1, "lower"), (1.0, 0, "upper"), (-0.5, 1, "lower")):
        fam = HopfFamily(m=m, K=K, sign=sign, params=params_real)
        da = coproduct_op(word("a"), rep, rep, fam)
        dad = coproduct_op(word("adag"), rep, rep, fam)
        dn = np.diag(coproduct_op(word("N"), rep, rep, fam))
        lhs = da @ dad - dad @ da
        rhs = np.diag(q_number(dn + 0.5, params_real) - q_number(dn - 0.5, params_real))
        _, nrm = windowed_residual(lhs, rhs, (8, 8), Window(5, guard=1))
        assert nrm <= 1e-12


_fams = st.builds(lambda m, K, sign: (m, K, sign), st.sampled_from([-0.5, 0.5, 1.0]),
                  st.sampled_from([-1, 0, 1]), st.sampled_from(["upper", "lower"]))
_moduli = st.floats(0.5, 0.9) | st.floats(1.1, 2.2)
_q_values = _moduli | st.builds(lambda r, t: r * cmath.exp(1j * t), _moduli,
                                st.floats(0.05, 1.2))
_words = st.lists(st.sampled_from(["N", "a", "adag"]), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(point=_fams, q=_q_values, D=st.integers(4, 8), letters=_words)
@example(point=(1.0, -1, "upper"), q=0.4384725033394808 + 0.674197487611197j, D=5,
         letters=["N", "N", "N"])  # the largest difference found in 3000 draws
def test_coassociativity_gather_matches_dense_oracle(point, q, D, letters):
    # Both sides are rounding-level.  Like the dense product, the engine sums
    # the terms of each letter's image (the five of Delta_2(N)) before any
    # product, so it no longer expands Delta_2(N)^k into cancelling terms: it
    # gives the dense 0.0 at the pinned example, where the expanded gather
    # gave 2.5e-15, and stayed within 3e-16 of the dense oracle in 1200 draws
    p = DeformParams(q=q)
    rep = build_rep(D, 0.5, p)
    fam = HopfFamily(m=point[0], K=point[1], sign=point[2], params=p)
    w = word(*letters)
    guard = len(letters)
    window = Window(max(0, D - 1 - guard), guard=guard)
    rpt = check_hopf_axioms(fam, rep, [w])[0]
    left, right, want = dense_coassoc(w, rep, fam, window)
    assert rpt.identity == f"hopf_coassoc_{w.name}"
    assert rpt.window == window.max_index
    assert abs(rpt.normalized_residual - want) <= 1e-15, (rpt.normalized_residual, want)
    assert rpt.verdict == verdict_of(want)
    # the window entries off the word's degree are exact zeros of both sides
    idx = window_indices((D, D, D), window.max_index)
    total = np.add.reduce(np.unravel_index(idx, (D, D, D)))
    degree = letters.count("adag") - letters.count("a")
    off = total[:, None] != total + degree
    for side in (left, right):
        assert np.all(side[np.ix_(idx, idx)][off] == 0.0)


@settings(max_examples=30, deadline=None)
@given(point=_fams, q=_q_values, D=st.integers(4, 8), letters=_words)
def test_counit_antipode_match_expanded_sweedler_oracle(point, q, D, letters):
    # the engine multiplies per-letter images (the counit) and recurses over
    # the letters (the antipode); the oracle expands the whole word first.
    # Where the oracle's summed terms are modest the two agree within 1e-13;
    # above a rounding scale of 1e3 (a ladder word's antipode at |q| near 2,
    # whose residual stays absolute since eps(w) = 0) the bound is relative
    # to that scale, as two summation orders of such terms differ by more
    p = DeformParams(q=q)
    rep = build_rep(D, 0.5, p)
    fam = HopfFamily(m=point[0], K=point[1], sign=point[2], params=p)
    w = word(*letters)
    guard = len(letters)
    window = Window(max(0, D - 1 - guard), guard=guard)
    want = sweedler_counit_antipode(w, rep, fam, window)
    got = {r.identity: r for r in check_hopf_axioms(fam, rep, [w])}
    for tag, (nrm, scale) in want.items():
        rpt = got[f"hopf_{tag}_{w.name}"]
        assert rpt.window == window.max_index
        assert rpt.verdict == verdict_of(nrm), tag
        bound = 1e-13 if scale <= 1e3 else 1e-13 * scale
        assert abs(rpt.normalized_residual - nrm) <= bound, \
            (tag, rpt.normalized_residual, nrm, scale)


def test_axioms_peak_memory_below_one_dense_operator(params_real):
    # one dense D^3 x D^3 complex operator at D = 10 is 16 MB
    rep = build_rep(10, 0.5, params_real)
    fam = HopfFamily.canonical(params_real)
    tracemalloc.start()
    try:
        reports = check_hopf_axioms(fam, rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 5 * len(default_axiom_words())
    assert all(r.verdict == "pass" for r in reports)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20
