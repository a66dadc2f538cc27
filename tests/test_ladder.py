from functools import partial
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzfock.correspondence import (
    MAX_MODE,
    MAX_PARTICLES,
    BosonMonomial,
    BoundsError,
    FermionSubset,
    normal_order_fermion,
    parse_boson_expr,
    parse_fermion_expr,
)
from cuntzfock.ladder import (
    apply,
    basis_map,
    boson_state,
    boson_state_iterated,
    fermion_state,
    fermion_state_iterated,
    parse_boson_word,
    parse_fermion_word,
)
from cuntzfock.radical import ONE, sqrt_factorial_product, sqrt_of_nat
from cuntzfock import ladder, oracles, words
from cuntzfock.oracles import (
    _b1_direct, _NumericFamily, apply_rho, apply_zeta, boson_via_shifts, fermion_via_shifts,
)
from cuntzfock.rep import RepSpace, State, generator_map, gp_vector, map_basis, then
from cuntzfock.words import TailWord, block, index_to_word, word_to_index

P1 = RepSpace((1,))
OMEGA = gp_vector(P1)


def e(n):
    return State.basis(P1, index_to_word(n))


def act(x, create, n, psi):
    """x_n* (create) or x_n on psi, for x = "b" or "a", as an operator token."""
    return apply(f"{x}{n}*" if create else f"{x}{n}", psi)


def lifted(oracle, create, n, psi):
    """A shift oracle on a state: its basis map at (create, n) lifted by `map_basis`."""
    return map_basis(psi, partial(oracle, create, n))


def a_1(w):
    """a_1 = t_1 t_2* on a basis word, from the generator maps that define it."""
    return then(generator_map("t", 1, False), generator_map("t", 2, True)(w))


def single_index(state):
    ((w, c),) = state.items()
    return word_to_index(w), c


def test_boson_creation_on_vacuum():
    for m in range(1, 7):
        idx, c = single_index(act("b", True, m, OMEGA))
        assert idx == 2 ** (m - 1) + 1
        assert c == ONE


def test_boson_annihilates_vacuum():
    for m in range(1, 7):
        assert not act("b", False, m, OMEGA)


def test_boson_number_one():
    assert act("b", False, 1, e(2)) == OMEGA


def test_fermion_creation_on_vacuum():
    for m in range(1, 7):
        idx, c = single_index(act("a", True, m, OMEGA))
        assert idx == 2 ** (m - 1) + 1
        assert c == ONE
        assert not act("a", False, m, OMEGA)


def test_fermion_nilpotent():
    psi = fermion_state(FermionSubset((2, 4)))
    assert not act("a", True, 1, act("a", True, 1, psi))


def test_transport_agrees_with_shift_oracles():
    sample = [TailWord(p, (1,)) for p in [(), (2,), (1, 2), (2, 2), (1, 1, 2), (2, 1, 2)]]
    for w in sample:
        psi = State.basis(P1, w)
        for n in range(1, 7):
            for create in (False, True):
                fast = act("b", create, n, psi)
                assert fast == lifted(boson_via_shifts, create, n, psi)
                fast = act("a", create, n, psi)
                assert fast == lifted(fermion_via_shifts, create, n, psi)


def test_transport_in_other_spaces():
    # the shift oracles are definitional; agreement must hold off the tail-1 space
    for J in [(2, 1), (1, 2, 2)]:
        space = RepSpace(J)
        for w in space.basis_words(3):
            psi = State.basis(space, w)
            for n in range(1, 5):
                assert act("b", False, n, psi) == lifted(boson_via_shifts, False, n, psi)
                assert act("a", True, n, psi) == lifted(fermion_via_shifts, True, n, psi)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple),
    st.integers(0, 3),
    st.integers(1, 16),
    st.booleans(),
)
def test_boson_transport_matches_shift_oracle_deep(period, prefix, phase, n, create):
    space = RepSpace(period)
    psi = State.basis(space, TailWord(prefix, period, phase))
    assert act("b", create, n, psi) == lifted(boson_via_shifts, create, n, psi)
    assert act("a", create, n, psi) == lifted(fermion_via_shifts, create, n, psi)


# The b/a actions as they were composed from two words: the word is split
# after the letters an action passes and edits (a test-local copy of the
# split, each rest built with `_make`), and the edited letters are prepended
# to the rest (a copy of the prepend, its tail absorbing letters one by one).
def _split_as_before(w, h):
    prefix = w.prefix
    if h <= len(prefix):
        return prefix[:h], words._make(prefix[h:], w.period, w.rot)
    rot = w.rot
    q, k = divmod(h - len(prefix), len(rot))
    return prefix + rot * q + rot[:k], words._make((), w.period, rot[k:] + rot[:k])


def _prepend_as_before(letters, w):
    if w.prefix:
        return words._make(letters + w.prefix, w.period, w.rot)
    rot, r, k, back = w.rot, len(w.rot), len(letters), 0
    while k and letters[k - 1] == rot[(-1 - back) % r]:
        k, back = k - 1, back + 1
    s = back % r
    return words._make(letters[:k], w.period, rot[r - s:] + rot[:r - s])


def _action_as_before(kind, create, n, w):
    """(image, h, cut, ins): the image of x_n or x_n* on w, and its edit: the
    letters from h to h + cut replaced by ins; None when x annihilates w."""
    if kind == "a":
        head, rest = _split_as_before(w, n)
        if head[-1] != (1 if create else 2):
            return None
        sign = -ONE if head[:-1].count(2) % 2 else ONE
        return (sign, _prepend_as_before(head[:-1] + (3 - head[-1],), rest)), n - 1, 1, 1
    found = words.nth_block(w, n)
    if found is None or not create and found[1] == 1:
        return None
    start, m = found
    if create:
        head, rest = _split_as_before(w, start)
        return (sqrt_of_nat(m), _prepend_as_before(head + (2,), rest)), start, 0, 1
    head, rest = _split_as_before(w, start + 1)
    return (sqrt_of_nat(m - 1), _prepend_as_before(head[:-1], rest)), start, 1, 0


def _edit_case(w, image, h, cut, ins) -> str:
    """Where the edit of a nonzero action falls: before the prefix's last letter,
    past it with the image built as edited, or absorbed in part by the tail."""
    if h + cut < len(w.prefix):
        return "in-prefix"
    edited = max(h + cut, len(w.prefix)) - cut + ins  # the letters before the unrolled tail
    return "absorbed" if len(image.prefix) < edited else "in-tail"


def test_ladder_actions_match_the_two_word_composition_and_the_shift_oracles():
    reached = set()

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
        st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple),
        st.integers(0, 3),
    )
    def check(period, prefix, phase):
        w = TailWord(prefix, period, phase)
        for n in range(1, MAX_MODE + 1):
            for create in (False, True):
                for kind, oracle in (("b", boson_via_shifts), ("a", fermion_via_shifts)):
                    got = basis_map((kind, n, create))(w)
                    want = _action_as_before(kind, create, n, w)
                    if want is None:
                        assert got is None, (kind, n, create, w)
                        assert oracle(create, n, w) is None
                        continue
                    (coeff, v), h, cut, ins = want
                    assert got[0] == coeff, (kind, n, create, w)
                    # every slot, and so the canonical form, not just the denoted word
                    assert (got[1].prefix, got[1].period, got[1].rot) == (v.prefix, v.period, v.rot)
                    assert got == oracle(create, n, w)
                    reached.add(_edit_case(w, v, h, cut, ins))

    check()
    assert reached == {"in-prefix", "in-tail", "absorbed"}


def test_fermion_shift_oracle_calls_grow_linearly_in_n(monkeypatch):
    # zeta skips a branch that t_i* annihilates, so the nested shifts of
    # a_1 follow one branch per level on a basis word: at most n - 1 zeta
    # calls for a_n, where calling both branches would make 2^(n-1) - 1.
    calls = [0]
    zeta = oracles.apply_zeta

    def counted(op, w):
        calls[0] += 1
        return zeta(op, w)

    monkeypatch.setattr(oracles, "apply_zeta", counted)
    words_ = [TailWord(p, (1,)) for p in [(), (2,), (1, 2), (2, 1, 1, 2), (2,) * 9 + (1, 2)]]
    for w in words_:
        for n in range(1, 17):
            for create in (False, True):
                calls[0] = 0
                assert fermion_via_shifts(create, n, w) == basis_map(("a", n, create))(w)
                assert calls[0] <= n - 1


def test_fast_actions_do_not_reach_the_oracle_block_finder(monkeypatch):
    spaces = [RepSpace(J) for J in [(1,), (2, 1), (1, 2, 2), (2,)]]
    states = [State.basis(space, w) for space in spaces for w in space.basis_words(5)]

    def actions():
        out = []
        for psi in states:
            for i in (1, 2):
                out += [apply(f"t{i}", psi), apply(f"t{i}*", psi)]
            for n in range(1, 7):
                out += [apply(f"s{n}", psi), apply(f"s{n}*", psi)]
                for create in (False, True):
                    out += [act("b", create, n, psi), act("a", create, n, psi)]
        return out

    want = actions()

    def boom(w):
        raise AssertionError(f"leading_block reached on {w}")

    monkeypatch.setattr(oracles, "leading_block", boom)
    assert actions() == want


def test_oracles_do_not_reach_the_fast_ladder_maps(monkeypatch):
    # The definitional forms may use the t/s generator maps, which define
    # them, but not the transports or the b/a basis maps they are checked against.
    states = [State.basis(P1, w) for w in P1.basis_words(4)]
    states.append(e(3) + e(6) * sqrt_of_nat(2) - e(13))
    tokens = [(kind, n, star) for kind in "tsba" for n in (1, 2, 3) for star in (False, True)
              if kind != "t" or n < 3]

    def oracles():
        out = []
        for psi in states:
            for create in (False, True):
                out.append(map_basis(psi, partial(_b1_direct, create)))
                for n in range(1, 5):
                    out += [lifted(boson_via_shifts, create, n, psi),
                            lifted(fermion_via_shifts, create, n, psi)]
            out += [map_basis(psi, partial(apply_rho, partial(_b1_direct, False))),
                    map_basis(psi, partial(apply_zeta, a_1))]
        num = _NumericFamily.__wrapped__(64)  # a fresh family, built below
        out += [num.apply(tok, {n: ONE / n for n in range(1, 65)}) for tok in tokens]
        return out

    want = oracles()

    def boom(*args):
        raise AssertionError(f"fast ladder action reached with {args}")

    monkeypatch.setattr(ladder, "_boson_word", boom)
    monkeypatch.setattr(ladder, "_fermion_word", boom)
    assert oracles() == want


def test_shift_oracles_build_no_state_and_lift_nothing(monkeypatch):
    # every oracle sends a basis word to one image through `rep.then`: no
    # State is built, by its constructor or by a wrap, and no map is lifted
    from cuntzfock import rep

    calls = {"__init__": 0, "_wrap": 0, "map_basis": 0}

    def counted(name, f):
        def inner(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return inner

    monkeypatch.setattr(rep.State, "__init__", counted("__init__", rep.State.__init__))
    for name in ("_wrap", "map_basis"):
        monkeypatch.setattr(rep, name, counted(name, getattr(rep, name)))
    images = []
    for space in [RepSpace(J) for J in [(1,), (2,), (2, 1), (1, 2, 2)]]:
        for w in space.basis_words(4):
            images += [apply_zeta(a_1, w), apply_rho(partial(apply_zeta, a_1), w)]
            for create in (False, True):
                images += [_b1_direct(create, w), apply_rho(partial(_b1_direct, create), w)]
                for n in range(1, 7):
                    images += [boson_via_shifts(create, n, w), fermion_via_shifts(create, n, w)]
    assert calls == {"__init__": 0, "_wrap": 0, "map_basis": 0}
    assert sum(image is not None for image in images) > len(images) // 4


def test_boson_weights_are_read_from_a_table_of_square_roots():
    table = ladder._WEIGHTS
    assert len(table) == ladder._WEIGHT_TOP + 1
    assert all(table[m] == sqrt_of_nat(m) for m in range(1, len(table)))
    assert table[1] is ONE  # so that `then` skips products by it
    # past the table the weight is computed: b_1* on a block of m = 2^(m-1) 1 has weight sqrt(m)
    for m in (ladder._WEIGHT_TOP, ladder._WEIGHT_TOP + 1, 40):
        w = TailWord(block(m), (1,))
        assert basis_map(("b", 1, True))(w) == (sqrt_of_nat(m), TailWord(block(m + 1), (1,)))
        assert basis_map(("b", 1, False))(w) == (sqrt_of_nat(m - 1), TailWord(block(m - 1), (1,)))


def test_boson_state_closed_form():
    assert boson_state(BosonMonomial()) == OMEGA
    st = boson_state(BosonMonomial(((1, 2),)))
    assert st == State.basis(P1, TailWord((2, 2), (1,)), sqrt_of_nat(2))
    st = boson_state(BosonMonomial(((2, 1), (5, 1))))
    assert st == State.basis(P1, TailWord((1, 2, 1, 1, 1, 2), (1,)))


def test_fermion_state_closed_form():
    assert fermion_state(FermionSubset((1,))) == State.basis(P1, TailWord((2,), (1,)))
    assert fermion_state(FermionSubset((1, 2, 3))) == State.basis(
        P1, TailWord((2, 2, 2), (1,))
    )
    assert fermion_state(FermionSubset((2, 4))) == State.basis(
        P1, TailWord((1, 2, 1, 2), (1,))
    )


def test_closed_forms_match_iteration():
    import itertools

    for n in range(7):
        for modes in itertools.combinations_with_replacement(range(1, 7), n):
            M = BosonMonomial.from_modes(modes)
            assert boson_state(M) == boson_state_iterated(M)
    for n in range(11):
        for modes in itertools.combinations(range(1, 11), n):
            S = FermionSubset(modes)
            assert fermion_state(S) == fermion_state_iterated(S)


def test_closed_forms_build_one_word_per_state(monkeypatch):
    # every word is built by `words._make` or by the checking constructor;
    # TailWord.__new__ itself is not patched, since deleting a patched
    # __new__ leaves CPython's slot pointing at the patch's wrapper
    built = []

    def counted(f):
        return lambda *args: built.append(f) or f(*args)

    monkeypatch.setattr(words, "_make", counted(words._make))
    monkeypatch.setattr(TailWord, "__init__", counted(TailWord.__init__))
    monomials = [parse_boson_expr(e) for e in ("", "1", "1^3", "2 5^2", "1^2 3 7^4")]
    subsets = [FermionSubset(s) for s in ((), (1,), (3,), (1, 2, 6), (2, 4, 5, 9, 16))]
    for build, values in ((boson_state, monomials), (fermion_state, subsets)):
        for value in values:
            built.clear()
            build(value)
            assert len(built) == 1, (build.__name__, value)


def test_iterated_boson_state_builds_one_map_per_mode(monkeypatch):
    build, built = ladder.basis_map, []
    monkeypatch.setattr(ladder, "basis_map", lambda tok: built.append(tok) or build(tok))
    M = parse_boson_expr("1^3 4 6^2")
    assert boson_state_iterated(M) == boson_state(M)
    assert built == [("b", 6, True), ("b", 4, True), ("b", 1, True)]


def test_parse_fermion_word():
    assert parse_fermion_word(TailWord((2,), (1,))) == FermionSubset((1,))
    assert parse_fermion_word(TailWord((1, 2, 1, 2), (1,))) == FermionSubset((2, 4))
    assert parse_fermion_word(TailWord((), (1,))) == FermionSubset(())
    assert parse_fermion_word(TailWord((), (2, 1))) is None


def test_parse_boson_word():
    assert parse_boson_word(TailWord((2, 2), (1,))) == BosonMonomial(((1, 2),))
    assert parse_boson_word(TailWord((1, 2, 1, 1, 1, 2), (1,))) == BosonMonomial(
        ((2, 1), (5, 1))
    )
    assert parse_boson_word(TailWord((), (1,))) == BosonMonomial()


def test_parse_word_round_trips():
    for w in P1.basis_words(8):
        S = parse_fermion_word(w)
        assert fermion_state(S) == State.basis(P1, w)
        M = parse_boson_word(w)
        st = boson_state(M)
        ((got, _),) = st.items()
        assert got == w


# -- the closed forms against the letter spellings they replaced -------------


def _spelled_word(M):
    """The word of M spelled in letters: each mode gap in 1s, each multiplicity in 2s."""
    letters, prev = [], 1
    for n, k in M.factors:
        letters += [1] * (n - prev) + [2] * k
        prev = n
    return TailWord(tuple(letters), (1,))


def _read_runs(w):
    """The monomial of a tail-1 word read run by run: a run of k 2s is (b*_n)^k,
    where n - 1 counts the 1s before it."""
    factors, mode = [], 1
    for letter, run in groupby(w.prefix):
        k = len(tuple(run))
        if letter == 1:
            mode += k
        else:
            factors.append((mode, k))
    return BosonMonomial(factors)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, MAX_MODE), max_size=MAX_PARTICLES).map(BosonMonomial.from_modes))
def test_boson_state_is_the_spelled_word(M):
    ((w, c),) = boson_state(M).items()
    assert w == _spelled_word(M)
    ks = [k for _, k in M.factors]
    assert c == sqrt_factorial_product(ks)
    assert (c is ONE) == all(k == 1 for k in ks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, 2]), max_size=40).map(tuple))
def test_parse_boson_word_reads_runs_past_the_particle_bound(prefix):
    w = TailWord(prefix, (1,))
    M = parse_boson_word(w)
    assert M == _read_runs(w)
    assert M.particle_number == prefix.count(2)
    # the same letters on another space are no boson word
    assert parse_boson_word(TailWord(prefix, (2, 1))) is None


def test_normal_order():
    assert normal_order_fermion([2, 1]) == (-1, FermionSubset((1, 2)))
    assert normal_order_fermion([1, 1]) is None
    assert normal_order_fermion([3, 1, 2]) == (1, FermionSubset((1, 2, 3)))


def test_ccr_small():
    psi = boson_state(BosonMonomial(((1, 1), (3, 2))))
    for n in range(1, 5):
        for m in range(1, 5):
            comm = apply(f"b{n} b{m}*", psi) - apply(f"b{m}* b{n}", psi)
            assert comm == (psi if n == m else State.zero(P1))


def test_car_small():
    psi = fermion_state(FermionSubset((1, 3)))
    for n in range(1, 5):
        for m in range(1, 5):
            anti = apply(f"a{n} a{m}*", psi) + apply(f"a{m}* a{n}", psi)
            assert anti == (psi if n == m else State.zero(P1))


def test_boson_intertwining():
    psi = boson_state(BosonMonomial(((2, 1),)))
    for k in range(1, 5):
        for m in range(1, 5):
            assert apply(f"s{k} b{m}*", psi) == apply(f"b{m + 1}* s{k}", psi)


def test_fermion_intertwining_signs():
    psi = fermion_state(FermionSubset((1, 2)))
    for i in (1, 2):
        sign = 1 if i == 1 else -1
        for m in range(1, 5):
            lhs = apply(f"t{i} a{m}", psi)
            rhs = apply(f"a{m + 1} t{i}", psi) * sign
            assert lhs == rhs


def test_grammar():
    assert parse_boson_expr("1^2 3") == BosonMonomial(((1, 2), (3, 1)))
    assert parse_boson_expr("3 1 1") == BosonMonomial(((1, 2), (3, 1)))
    assert parse_boson_expr("b: 2") == BosonMonomial(((2, 1),))
    assert parse_boson_expr("") == BosonMonomial()
    assert parse_fermion_expr("1 2 5") == (1, FermionSubset((1, 2, 5)))
    assert parse_fermion_expr("2 1") == (-1, FermionSubset((1, 2)))
    with pytest.raises(ValueError):
        parse_fermion_expr("1 1")
    with pytest.raises(ValueError):
        parse_boson_expr("1^0")
    with pytest.raises(ValueError):
        parse_boson_expr("zzz")


def test_parsers_refuse_too_many_particles_before_expanding():
    # the small cases first: an expanding parser fails here, before it
    # would allocate a billion modes below
    with pytest.raises(BoundsError):
        parse_boson_expr("1^13")
    with pytest.raises(BoundsError):
        parse_boson_expr("1^6 2^7")
    with pytest.raises(BoundsError):
        parse_fermion_expr(" ".join(str(n) for n in range(13, 0, -1)))
    assert parse_boson_expr("1^12").particle_number == 12
    with pytest.raises(BoundsError):
        parse_boson_expr("1^1000000000")
    with pytest.raises(BoundsError):
        parse_fermion_expr(" ".join(str(n) for n in range(1, 4001)))


def test_monomial_validation():
    with pytest.raises(ValueError):
        BosonMonomial(((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        FermionSubset((3, 3))
    # a mode below 1 is refused for what it is, not as out of order
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"mode index must be >= 1, got {bad}"):
            BosonMonomial(((bad, 1),))
        with pytest.raises(ValueError, match=f"mode index must be >= 1, got {bad}"):
            FermionSubset((bad, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        BosonMonomial(((2, 1), (2, 1)))
    with pytest.raises(ValueError, match="multiplicities"):
        BosonMonomial(((2, 0),))


def test_bounds_refusal():
    with pytest.raises(BoundsError):
        act("b", True, 17, OMEGA)
    with pytest.raises(BoundsError):
        boson_state(BosonMonomial(((1, 13),)))
    # the bound itself is allowed
    assert act("b", True, 16, OMEGA)


def test_monomial_from_list_factors_is_a_value():
    M = BosonMonomial([[1, 2], [4, 1]])
    assert M == BosonMonomial(((1, 2), (4, 1)))
    assert hash(M) == hash(BosonMonomial(((1, 2), (4, 1))))
    assert repr(M) == "BosonMonomial(factors=((1, 2), (4, 1)))"
    assert M.factors == ((1, 2), (4, 1))


def test_json_round_trips():
    M = BosonMonomial(((1, 2), (4, 1)))
    assert BosonMonomial.from_json(M.to_json()) == M
    S = FermionSubset((2, 5))
    assert FermionSubset.from_json(S.to_json()) == S
