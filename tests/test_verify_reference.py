"""verify_sequence reads every flag from the set of nonzero pairings of
each operator, empty when the Lenard lemma (or its Dirac form) certifies
the chain and otherwise evaluated on the skew triangle, and evaluates a
bracket only where a density is inexact; its state is linear in the depth
plus the number of nonzero pairings.  It must give the flags of the reference
verifiers, which evaluate orthogonality and every bracket on their own,
on sound and on corrupted records of all three chain kinds; the densities
the chains carry are the ones the defect-first reference attaches."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pvakit import (
    Context,
    Expression,
    LocalFunctional,
    LogRequired,
    MatrixDiffOp,
    lenard,
    lenard_extend,
    parse_operator,
    verify_sequence,
)
from pvakit import brackets, varcalc
from pvakit.algebra import memo_scope
from pvakit.hierarchies import FAMILIES, HierarchySpec, _Binding, generate
from pvakit.lenard import HierarchyRecord, _attach_density

import reference


def _family(name, params=None, depth=None):
    """A freshly generated record with the operators it was built from."""
    spec = HierarchySpec(name, params or {}, depth)
    fam = FAMILIES[name]
    read = _Binding(fam, spec.params)
    return generate(spec), read.operator(fam.H), read.operator(fam.K)


def _flags(rec, H, K, verify):
    """Verification.to_json() of a fresh copy of rec, filled by verify; the
    reference verifies an NLS record with J = (0, -1; 1, 0)."""
    copy = HierarchyRecord(rec.name, rec.kind, rec.params, list(rec.steps))
    if verify is reference.verify_sequence and rec.kind == "dirac":
        reference.verify_nls(copy, parse_operator("0, -1; 1, 0", K.ctx))
    else:
        verify(H, K, copy)
    return copy.verification.to_json()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_flags_match_reference(name):
    rec, H, K = _family(name)
    want = _flags(rec, H, K, reference.verify_sequence)
    assert rec.verification.to_json() == want
    assert _flags(rec, H, K, verify_sequence) == want


def _perturb_F(steps):
    s = steps[2]
    F = (s.F[0] + s.F[0].ctx.gen(0, 1),) + tuple(s.F[1:])
    steps[2] = replace(s, F=F)


def _double_h(steps):
    steps[2] = replace(steps[2], h=steps[2].h + steps[2].h)


def _swap_h(steps):
    a, b = steps[1], steps[2]
    steps[1], steps[2] = replace(a, h=b.h), replace(b, h=a.h)


def _foreign(ctx):
    """u*u'^2, a density foreign to the kdv, pkdv and nls chains."""
    u, u1 = ctx.gen(0, 0), ctx.gen(0, 1)
    return u * u1 * u1


def _foreign_h(steps):
    """An inexact density whose brackets with the exact ones do not vanish."""
    s = steps[2]
    steps[2] = replace(s, h=LocalFunctional(_foreign(s.F[0].ctx)))


def _foreign_step(steps):
    """An exact density whose pairings with the other steps do not vanish."""
    s = steps[2]
    g = _foreign(s.F[0].ctx)
    steps[2] = replace(s, F=varcalc.variational_derivative(g), h=LocalFunctional(g))


@pytest.mark.parametrize("name", ["kdv", "pkdv", "nls"])
@pytest.mark.parametrize(
    "corrupt", [_perturb_F, _double_h, _swap_h, _foreign_h, _foreign_step]
)
def test_corrupted_flags_match_reference(name, corrupt):
    rec, H, K = _family(name)
    steps = list(rec.steps)
    corrupt(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    want = _flags(bad, H, K, reference.verify_sequence)
    got = _flags(bad, H, K, verify_sequence)
    assert got == want
    assert want != rec.verification.to_json()


def _copied_F(steps):
    """F^2 as an equal tuple of new expressions, which corrupts nothing."""
    s = steps[2]
    steps[2] = replace(s, F=tuple(Expression(f.ctx, dict(f.terms)) for f in s.F))


@pytest.mark.parametrize("name", ["kdv", "pkdv", "nls"])
@pytest.mark.parametrize(
    "corrupt", [_copied_F, _perturb_F, _double_h, _swap_h, _foreign_h, _foreign_step]
)
def test_records_verified_in_one_memo_scope_match_reference(name, corrupt):
    """In the memo_scope of a run that verified the sound record, a changed
    step carries new objects, so its values are computed afresh: the flags
    are the reference's, and an equal copy of F^2 verifies as sound."""
    rec, H, K = _family(name)
    steps = list(rec.steps)
    corrupt(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    want = _flags(bad, H, K, reference.verify_sequence)
    with memo_scope():
        assert _flags(rec, H, K, verify_sequence) == rec.verification.to_json()
        assert _flags(bad, H, K, verify_sequence) == want
    assert (want == rec.verification.to_json()) == (corrupt is _copied_F)


def _pairing_tests(rec, H, K, monkeypatch):
    """How many functionals verify_sequence zero-tests on a fresh copy of
    rec: the pairings int F^m . op F^n, plus the brackets
    int dh_n . op dh_m of the involution fallback, which a record reaches
    only where a density's variational derivative is not its gradient."""
    calls = []

    class Counted(LocalFunctional):
        def is_zero(self):
            calls.append(self)
            return super().is_zero()

    monkeypatch.setattr(lenard, "LocalFunctional", Counted)
    _flags(rec, H, K, verify_sequence)
    return len(calls)


def _triangle(N):
    return N * (N - 1) // 2


@pytest.mark.parametrize("name", list(FAMILIES))
def test_each_pairing_evaluated_once(name, monkeypatch):
    """A sound chain is certified by the Lenard lemma, so no pairing is
    evaluated: for the bi-Hamiltonian and bi-symplectic families since H
    and K are skew, for NLS since J is skew, L_{H,K} is isotropic and every
    step carries its witness P_n.  Every density is exact, so no bracket
    is evaluated either."""
    rec, H, K = _family(name)
    assert _pairing_tests(rec, H, K, monkeypatch) == 0


@pytest.mark.parametrize("depth", range(1, 9))
def test_nls_flags_match_reference_at_each_depth(depth):
    rec, H, K = _family("nls", depth=depth)
    assert rec.verification.to_json() == _flags(rec, H, K, reference.verify_sequence)


def _nls_witness_cases():
    """The sound NLS record with its witnesses stripped, or one P_2
    perturbed so that K P_2 != F^2 (by (u, 0)) or, by (0, 1) in ker K, so
    that K P_2 = F^2 but H P_2 != flow_2."""
    rec, H, K = _family("nls")
    ctx = K.ctx

    def moved(by):
        steps = list(rec.steps)
        s = steps[2]
        steps[2] = replace(s, P=tuple(p + q for p, q in zip(s.P, by)))
        return steps

    stripped = [replace(s, P=None) for s in rec.steps]
    off_K = moved((ctx.gen(0, 0), ctx.zero()))
    off_H = moved((ctx.zero(), ctx.one()))
    s = off_K[2]
    assert K.apply(s.P) != s.F
    s = off_H[2]
    assert K.apply(s.P) == s.F and H.apply(s.P) != s.flow
    return rec, H, K, {"stripped": stripped, "off_K": off_K, "off_H": off_H}


@pytest.mark.parametrize("case", ["stripped", "off_K", "off_H"])
def test_nls_without_a_sound_witness_takes_the_triangle(case, monkeypatch):
    """A record with no witness, or one whose P_k fails K P_k = F^k or
    H P_k = flow_k, is not certified: J is evaluated on its skew triangle,
    and the flags are the reference's."""
    rec, H, K, cases = _nls_witness_cases()
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, cases[case])
    assert _flags(bad, H, K, verify_sequence) == _flags(
        bad, H, K, reference.verify_sequence
    )
    assert _pairing_tests(bad, H, K, monkeypatch) == _triangle(len(bad.steps))


def test_broken_chain_evaluates_each_skew_triangle(monkeypatch):
    """Both skew triangles, plus the involution fallback for each skew
    operator on the N - 1 pairs m < n of densities that involve the
    perturbed step."""
    rec, H, K = _family("kdv")
    steps = list(rec.steps)
    _perturb_F(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    N = len(steps)
    assert _pairing_tests(bad, H, K, monkeypatch) == 2 * _triangle(N) + 2 * (N - 1)


@pytest.mark.parametrize("depth", [None, 5])
def test_symplectic_involution_reads_the_pairings(depth, monkeypatch):
    """On the pkdv record broken by _perturb_F both skew triangles are
    evaluated, and the involution of a symplectic chain is read off their
    nonzero pairings: no density bracket is evaluated."""
    rec, H, K = _family("pkdv", depth=depth)
    steps = list(rec.steps)
    _perturb_F(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    assert _flags(bad, H, K, verify_sequence) == _flags(
        bad, H, K, reference.verify_sequence
    )
    assert _pairing_tests(bad, H, K, monkeypatch) == 2 * _triangle(len(steps))


def test_failing_exact_pairs_are_read_not_evaluated(monkeypatch):
    """On the kdv record broken by _foreign_step every density is exact, so
    involution reads the nonzero pairings of the two skew triangles and
    evaluates no bracket."""
    rec, H, K = _family("kdv")
    steps = list(rec.steps)
    _foreign_step(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    ver = _flags(bad, H, K, verify_sequence)
    assert ver["gradients"] and not ver["involution_H"] and not ver["involution_K"]
    assert _pairing_tests(bad, H, K, monkeypatch) == 2 * _triangle(len(steps))


def test_involution_walk_follows_pair_order(monkeypatch):
    """The involution walk visits its pairs in (m, n) order, the failing
    exact pairs among the others, and stops at the first that fails.  On
    the kdv record with _foreign_step at step 2 and F^1 perturbed as
    _perturb_F perturbs its step, both skew triangles are evaluated and the
    walk tests 17 functionals in all; a walk that took the failing exact
    pairs first would stop before any bracket and test 12."""
    rec, H, K = _family("kdv")
    steps = list(rec.steps)
    _foreign_step(steps)
    s = steps[1]
    steps[1] = replace(s, F=(s.F[0] + s.F[0].ctx.gen(0, 1),) + tuple(s.F[1:]))
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    ver = _flags(bad, H, K, verify_sequence)
    assert ver == _flags(bad, H, K, reference.verify_sequence)
    assert not ver["involution_H"] and not ver["involution_K"]
    assert _pairing_tests(bad, H, K, monkeypatch) == 17


def test_involution_fallback_reuses_variational_derivatives(monkeypatch):
    """On the kdv record broken by _perturb_F the fallback brackets read the
    dh of the gradient check: one variational derivative per density and
    none per bracket (those of the zero tests themselves are taken in
    varcalc and not counted); each operator is applied once to the one
    inexact dh, at the default depth, where dh_2 has one partner n > 2,
    and at depth 7, where it has five."""
    calls = []
    applied = []
    vder = varcalc.variational_derivative

    def counted(f):
        calls.append(f)
        return vder(f)

    class Applied(MatrixDiffOp):
        def apply(self, vec):
            applied.append(vec)
            return super().apply(vec)

    for depth in (None, 7):
        rec, H, K = _family("kdv", depth=depth)
        steps = list(rec.steps)
        _perturb_F(steps)
        bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
        want = _flags(bad, H, K, reference.verify_sequence)
        for mod in (lenard, brackets):
            monkeypatch.setattr(mod, "variational_derivative", counted)
        H2, K2 = (Applied(op.ctx, op.entries) for op in (H, K))
        calls.clear()
        applied.clear()
        assert _flags(bad, H2, K2, verify_sequence) == want
        assert len(calls) == len(steps)
        # op F^n for every step, then op dh_2 once, for each operator
        assert len(applied) == 2 * (len(steps) + 1)
        monkeypatch.undo()


def _lenard_record(h_text, seed, depth, kind="hamiltonian"):
    """A chain of d F^{n+1} = H F^n from one scalar seed, as `pvakit lenard`
    builds it, with its operators."""
    ctx = Context(("u",))
    H, K = parse_operator(h_text, ctx), parse_operator("d", ctx)
    rec = lenard_extend(H, K, [(ctx.parse(seed),)], depth, kind=kind)
    return rec, H, K


def test_non_skew_operator_keeps_full_matrix(monkeypatch):
    rec, H, K = _lenard_record("u*d", "u", 3)
    N = len(rec.steps)
    assert not (H.adjoint() + H).is_zero()
    assert _pairing_tests(rec, H, K, monkeypatch) == N * N + _triangle(N)


def test_sound_deep_chain_walks_no_pair(monkeypatch):
    """With no nonzero pairing and every density exact no pair can fail, so
    a certified chain walks no pair of either operator, and verifying a
    deep chain takes no loop over its N^2 pairs."""
    rec, H, K = _lenard_record("d^3", "u", 200)
    walked = []

    def combinations(steps, r):
        walked.append(len(steps))
        return itertools.combinations(steps, r)

    monkeypatch.setattr(lenard, "combinations", combinations)
    ver = _flags(rec, H, K, verify_sequence)
    assert ver["chain"] and ver["gradients"] and all(ver["closed"])
    assert ver["orthogonality"] and ver["involution_H"] and ver["involution_K"]
    assert walked == [0, 0, 0, 0]


# the reference takes 0.7 s for hd at depth 3, against 0.1 s at depth 2
_DEPTHS = {"hd": 2}
_VALUES = st.one_of(
    st.none(), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)


@st.composite
def _corruptions(draw, steps):
    """One randomly broken record: a perturbed F^n, or a doubled or
    swapped density."""
    steps = list(steps)
    how = draw(st.sampled_from(["perturb", "double", "swap"]))
    i = draw(st.integers(0, len(steps) - 1))
    s = steps[i]
    if how == "perturb":
        ctx = s.F[0].ctx
        gens = st.builds(ctx.gen, st.integers(0, ctx.nvars - 1), st.integers(0, 2))
        q = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        j = draw(st.integers(0, ctx.nvars - 1))
        F = list(s.F)
        F[j] = F[j] + (draw(gens) * draw(gens)).scale(q or 1)
        steps[i] = replace(s, F=tuple(F))
    elif how == "double" and s.h is not None:
        steps[i] = replace(s, h=s.h + s.h)
    elif len(steps) > 1:
        k = draw(st.integers(0, len(steps) - 1))
        a, b = steps[i], steps[k]
        steps[i], steps[k] = replace(a, h=b.h), replace(b, h=a.h)
    return steps


def _assert_flags_match_reference(rec, H, K):
    want = _flags(rec, H, K, reference.verify_sequence)
    assert _flags(rec, H, K, verify_sequence) == want


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_corrupted_records_match_reference(name, data):
    """Any bindings, any depth, one corruption: the certificate and the
    skew triangle give the flags of the full evaluation."""
    params = {k: data.draw(_VALUES, label=k) for k in FAMILIES[name].params}
    depth = data.draw(st.integers(1, _DEPTHS.get(name, 3)), label="depth")
    rec, H, K = _family(name, params, depth)
    steps = data.draw(_corruptions(rec.steps))
    _assert_flags_match_reference(
        HierarchyRecord(rec.name, rec.kind, rec.params, steps), H, K
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["u*d", "u^2*d", "d^2", "d^2 + d"]),
    st.sampled_from(["u", "u^2", "u^3"]),
    st.integers(1, 3),
    st.sampled_from(["hamiltonian", "symplectic"]),
    st.data(),
)
def test_random_non_skew_records_match_reference(h_text, seed, depth, kind, data):
    rec, H, K = _lenard_record(h_text, seed, depth, kind)
    if data.draw(st.booleans(), label="corrupt"):
        steps = data.draw(_corruptions(rec.steps))
        rec = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    _assert_flags_match_reference(rec, H, K)


def _reference_density(gradient):
    """The density attached with closedness decided by the defect first."""
    if not reference.is_closed(gradient).closed:
        return None
    try:
        return reference.exactify(gradient)
    except LogRequired:
        return None


@pytest.mark.parametrize("name", list(FAMILIES))
def test_densities_match_reference(name):
    rec, H, K = _family(name)
    for s in rec.steps:
        gradient = K.apply(s.F) if rec.kind == "symplectic" else s.F
        want = _reference_density(gradient)
        assert (None if s.h is None else s.h.rep) == want


def test_unclosed_gradient_gets_no_density(ctx1):
    assert _attach_density((ctx1.gen(0, 1),)) is None
    assert _reference_density((ctx1.gen(0, 1),)) is None
