import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzfock import words
from cuntzfock.oracles import leading_block
from cuntzfock.rep import RepSpace
from cuntzfock.words import (
    TailWord,
    _make,
    check_letters,
    flip,
    block,
    index_to_word,
    nth_block,
    parse_letters,
    prepend_letters,
    pure,
    unroll,
    word_to_index,
)


def split_letters(w: TailWord, h: int):
    """w = head . rest with len(head) == h, as `unroll` reads it: the rest is
    built with `_make`, so a suffix that is not canonical shows in its fields."""
    letters, rot = unroll(w, h)
    return letters[:h], _make(letters[h:], w.period, rot)


def letters_agree(u: TailWord, v: TailWord, count: int) -> bool:
    return all(u.letter_at(j) == v.letter_at(j) for j in range(count))


def test_parse_and_render():
    assert parse_letters("122") == (1, 2, 2)
    with pytest.raises(ValueError):
        parse_letters("103")
    assert pure((2, 1)).render() == "(21)"
    assert TailWord((1, 2), (1,)).render() == "12(1)"


def test_canonical_absorbs_tail_letters():
    assert TailWord((2, 1, 1), (1,)) == TailWord((2,), (1,))
    assert TailWord((1, 1), (1,)) == pure((1,))
    # absorbing into a rotated tail shifts the phase
    assert TailWord((2, 1), (2, 1)) == pure((2, 1), 0)


def test_nonprimitive_periods_collapse():
    assert pure((1, 1)) == pure((1,))
    assert pure((1, 2, 1, 2), 3) == pure((1, 2), 1)


def test_prepend_fixed_point():
    om = pure((1,))
    assert prepend_letters((1,), om) == om
    assert prepend_letters((2,), om) == TailWord((2,), (1,))


def test_prepend_rotates_pure_tail():
    om = pure((2, 1))
    got = prepend_letters((1,), om)
    # oracle: compare the denoted infinite words letterwise
    expected_letters = [1] + [om.letter_at(j) for j in range(9)]
    assert [got.letter_at(j) for j in range(10)] == expected_letters
    assert got == pure((2, 1), 1)
    assert got.depth == 0


def test_behead():
    # the first letter splits off, and what is left is a canonical word
    assert split_letters(TailWord((2,), (1,)), 1) == ((2,), pure((1,)))
    assert split_letters(TailWord((1, 2), (1,)), 1) == ((1,), TailWord((2,), (1,)))
    assert split_letters(pure((1,)), 1) == ((1,), pure((1,)))
    assert split_letters(pure((2, 1)), 1) == ((2,), pure((2, 1), 1))


def test_exactly_one_behead_succeeds():
    for period in [(1,), (2,), (2, 1), (1, 2, 2)]:
        for prefix in [(), (1,), (2,), (1, 2), (2, 2, 1)]:
            w = TailWord(prefix, period)
            hits = [i for i in (1, 2) if behead_by_constructor(w, i) is not None]
            assert [(i,) for i in hits] == [split_letters(w, 1)[0]]


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=12),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
    st.integers(0, 2),
)
def test_prepend_behead_inverse(prefix, period, phase):
    w = TailWord(tuple(prefix), tuple(period), phase)
    for i in (1, 2):
        assert split_letters(prepend_letters((i,), w), 1) == ((i,), w)
    head, rest = split_letters(w, 1)
    assert prepend_letters(head, rest) == w


def fields(w: TailWord):
    return (w.prefix, w.period, w.phase, w.rot, hash(w), w.to_json())


def behead_by_constructor(w: TailWord, i: int):
    if w.letter_at(0) != i:
        return None
    if w.prefix:
        return TailWord(w.prefix[1:], w.period, w.phase)
    return TailWord((), w.period, w.phase + 1)


words_with_any_period = st.builds(
    TailWord,
    st.lists(st.sampled_from([1, 2]), max_size=8).map(tuple),
    st.one_of(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
        st.sampled_from([(1, 2, 1, 2), (2, 1, 2, 1), (1, 1), (2, 2, 2), (1, 1, 1, 1)]),
    ),
    st.integers(0, 9),
)


@settings(max_examples=400)
@given(words_with_any_period, st.sampled_from([1, 2]))
def test_fast_constructors_match_the_validating_one(w, i):
    # phase and period reach the JSON, and __eq__ compares neither, so
    # every slot is compared, not just the denoted word
    want = TailWord((i,) + w.prefix, w.period, w.phase)
    assert fields(prepend_letters((i,), w)) == fields(want)
    head, rest = split_letters(w, 1)
    want = behead_by_constructor(w, i)
    assert (head == (i,)) == (want is not None)
    if want is not None:
        assert fields(rest) == fields(want)
    lb = leading_block(w)
    rest, m = w, 0
    while m <= w.depth + len(w.rot) and rest.letter_at(0) == 2:
        rest, m = behead_by_constructor(rest, 2), m + 1
    if rest.letter_at(0) == 2:
        assert lb is None
    else:
        rest = behead_by_constructor(rest, 1)
        assert lb is not None and lb[0] == m + 1
        assert fields(lb[1]) == fields(rest)


@settings(max_examples=400)
@given(words_with_any_period, st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple))
def test_bulk_prepend_matches_one_letter_at_a_time(w, letters):
    want = w
    for i in reversed(letters):
        want = TailWord((i,) + want.prefix, want.period, want.phase)
    assert fields(prepend_letters(letters, w)) == fields(want)


def leading_blocks(w: TailWord, n: int):
    """The lengths of the first n blocks, their letters and the rest, from `nth_block`."""
    found = [nth_block(w, j) for j in range(1, n + 1)]
    if found[-1] is None:
        return None
    ms = [m for _, m in found]
    start, m = found[-1]
    head, rest = split_letters(w, start + m)
    return ms, head, rest


@settings(max_examples=400)
@given(words_with_any_period, st.integers(1, 16))
def test_block_split_matches_repeated_leading_block(w, n):
    ms, rest = [], w
    for _ in range(n):
        lb = leading_block(rest)
        if lb is None:
            assert nth_block(w, n) is None
            return
        ms.append(lb[0])
        rest = lb[1]
    # each block starts where the blocks before it end
    assert [nth_block(w, j) for j in range(1, n + 1)] == [
        (sum(ms[:j - 1]), ms[j - 1]) for j in range(1, n + 1)
    ]
    got_ms, got_head, got_rest = leading_blocks(w, n)
    assert got_ms == ms
    assert got_head == sum(((2,) * (m - 1) + (1,) for m in ms), ())
    assert fields(got_rest) == fields(rest)
    # and prepending the blocks undoes the split, block by block
    for m in reversed(ms):
        rest = prepend_letters(block(m), rest)
    assert fields(rest) == fields(w)


def rest_by_constructor(w: TailWord, h: int) -> TailWord:
    """The word after the first h letters of w, built by the validating constructor."""
    if h <= w.depth:
        return TailWord(w.prefix[h:], w.period, w.phase)
    return TailWord((), w.period, w.phase + h - w.depth)


@settings(max_examples=400)
@given(words_with_any_period, st.data())
def test_split_letters_reads_the_word_and_inverts_prepend(w, data):
    for h in range(w.depth + 2 * len(w.rot) + 1):
        head, rest = split_letters(w, h)
        assert head == tuple(w.letter_at(j) for j in range(h))
        assert fields(rest) == fields(rest_by_constructor(w, h))
        assert fields(prepend_letters(head, rest)) == fields(w)
    letters = data.draw(st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple))
    head, rest = split_letters(prepend_letters(letters, w), len(letters))
    assert head == letters
    assert fields(rest) == fields(w)


def test_phase_is_read_back_from_the_tail():
    for length in range(1, 5):
        for code in range(2 ** length):
            period = tuple(1 + (code >> j & 1) for j in range(length))
            r = min(d for d in range(1, length + 1) if period == period[:d] * (length // d))
            for k in range(2 * r):
                assert TailWord((), period, k).phase == k % r, (period, k)


def test_block_split_runs_into_the_tail():
    assert nth_block(TailWord((2, 1, 2), (1,)), 4) == (5, 1)
    assert leading_blocks(TailWord((2, 1, 2), (1,)), 4) == (
        [2, 2, 1, 1], (2, 1, 2, 1, 1, 1), pure((1,))
    )
    assert nth_block(TailWord((1,), (2,)), 2) is None
    assert leading_blocks(TailWord((1,), (2,)), 2) is None
    assert nth_block(pure((2, 2, 1)), 2) == (3, 3)
    assert leading_blocks(pure((2, 2, 1)), 2) == ([3, 3], (2, 2, 1, 2, 2, 1), pure((2, 2, 1)))


def nth_block_by_letters(w: TailWord, n: int):
    """`nth_block` as it scanned letters: the prefix is extended by as many
    copies of the tail as hold the n-th 1, and the 1s are found in them."""
    letters = w.prefix
    short = n - letters.count(1)
    if short > 0:
        per_rot = w.rot.count(1)
        if not per_rot:
            return None
        letters += w.rot * -(-short // per_rot)
    start = 0
    for _ in range(n - 1):
        start = letters.index(1, start) + 1
    return start, letters.index(1, start) + 1 - start


def block_place(w: TailWord, n: int, found) -> str:
    """Where the n-th block of w lies: in the prefix, from the prefix into the
    tail (its 1 the tail's first), or in the tail, its 1 in the first period
    of the tail or a later one."""
    if found is None:
        return "none"
    start, m = found
    if start + m <= w.depth:
        return "prefix"
    if start < w.depth:
        return "straddles"
    return "tail-first" if start + m <= w.depth + len(w.rot) else "tail-later"


def test_nth_block_matches_the_letter_scan_on_every_basis_word():
    places = set()
    for J in [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]:
        for w in RepSpace(J).basis_words(6):
            for n in range(1, 17):
                found = nth_block(w, n)
                assert found == nth_block_by_letters(w, n), (J, w, n)
                places.add(block_place(w, n, found))
    assert places == {"none", "prefix", "straddles", "tail-first", "tail-later"}


@settings(max_examples=500)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=24).map(tuple),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.integers(0, 3),
    st.integers(1, 40),
)
def test_nth_block_matches_the_letter_scan(prefix, period, phase, n):
    w = TailWord(prefix, period, phase)
    assert nth_block(w, n) == nth_block_by_letters(w, n)


def test_word_to_index_examples():
    assert word_to_index(pure((1,))) == 1
    assert word_to_index(TailWord((2,), (1,))) == 2
    assert word_to_index(TailWord((1, 2), (1,))) == 3
    for w in (pure((2, 1)), pure((2,)), TailWord((1, 1), (2,)), TailWord((2,), (2, 1), 1)):
        with pytest.raises(ValueError, match="not a tail-1 word"):
            word_to_index(w)


def test_index_to_word_examples():
    assert index_to_word(1) == pure((1,))
    assert index_to_word(4) == TailWord((2, 2), (1,))
    assert index_to_word(5) == TailWord((1, 1, 2), (1,))
    for n in (0, -1, -2 ** 62):
        with pytest.raises(ValueError, match="index must be >= 1"):
            index_to_word(n)


_DIGIT_LETTERS = bytes.maketrans(b"01", b"\x01\x02")


def index_to_word_by_format(n: int) -> TailWord:
    """`index_to_word` as it formatted n - 1 in binary, reversed the digits
    and translated them to letters."""
    if n == 1:
        return _make((), (1,), (1,))
    return _make(tuple(format(n - 1, "b")[::-1].encode().translate(_DIGIT_LETTERS)), (1,), (1,))


def slots(w: TailWord):
    return w.prefix, w.period, w.rot


def test_index_bijection_exhaustive():
    for n in range(1, 2 ** 16 + 1):
        w = index_to_word(n)
        assert slots(w) == slots(index_to_word_by_format(n)), n
        assert word_to_index(w) == n


def test_index_to_word_matches_the_validating_constructor():
    for n in range(1, 2 ** 14 + 1):
        w = index_to_word(n)
        assert fields(w) == fields(TailWord(w.prefix, (1,), 0)), n


def test_index_recursion():
    for n in range(1, 513):
        w = index_to_word(n)
        for i in (1, 2):
            assert word_to_index(prepend_letters((i,), w)) == 2 * (n - 1) + i


@settings(max_examples=500)
@given(st.integers(1, 2 ** 64 - 1))
def test_codec_past_the_exhaustive_window(n):
    w = index_to_word(n)
    assert slots(w) == slots(index_to_word_by_format(n))
    assert word_to_index(w) == n
    assert fields(w) == fields(TailWord(w.prefix, (1,)))
    for i in (1, 2):  # idx(i . w) = 2 (idx(w) - 1) + i
        assert word_to_index(prepend_letters((i,), w)) == 2 * (n - 1) + i


@settings(max_examples=300)
@given(st.lists(st.sampled_from([1, 2]), max_size=62).map(tuple))
def test_codec_reads_every_tail_1_word(prefix):
    w = TailWord(prefix, (1,))
    n = word_to_index(w)
    assert 1 <= n < 2 ** 62 + 1 and fields(index_to_word(n)) == fields(w)


def test_block_letters():
    assert block(1) == (1,)
    assert block(3) == (2, 2, 1)
    with pytest.raises(ValueError):
        block(0)


def test_leading_block():
    assert leading_block(pure((1,))) == (1, pure((1,)))
    m, rest = leading_block(TailWord((2, 2, 1, 2), (1,)))
    assert m == 3 and rest == TailWord((2,), (1,))
    assert leading_block(pure((2,))) is None
    assert leading_block(TailWord((2, 2), (2,))) is None
    # peeling a pure word steps its phase to after the next 1
    assert leading_block(pure((2, 1))) == (2, pure((2, 1)))


def test_flip():
    w = TailWord((1, 2), (2, 1), 1)
    fw = flip(w)
    assert [fw.letter_at(j) for j in range(8)] == [
        3 - w.letter_at(j) for j in range(8)
    ]
    assert flip(fw) == w


def is_canonical(w: TailWord) -> bool:
    """rot is primitive, and a nonempty prefix does not end in the letter the tail supplies."""
    r = len(w.rot)
    primitive = all(w.rot != w.rot[:d] * (r // d) for d in range(1, r) if r % d == 0)
    return primitive and not (w.prefix and w.prefix[-1] == w.rot[-1])


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=8).map(tuple),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.integers(-9, 9),
)
def test_constructor_and_flip_give_canonical_words(prefix, period, phase):
    # the word prefix . rot^inf, with rot the period rotated by phase letters
    def letter(j):
        return prefix[j] if j < len(prefix) else period[(phase + j - len(prefix)) % len(period)]

    count = len(prefix) + 3 * len(period) + 12
    w = TailWord(prefix, period, phase)
    assert [w.letter_at(j) for j in range(count)] == [letter(j) for j in range(count)]
    assert is_canonical(w) and w.period == period
    fw = flip(w)
    assert [fw.letter_at(j) for j in range(count)] == [3 - letter(j) for j in range(count)]
    assert is_canonical(fw) and fw.period == tuple(3 - i for i in period)
    assert fields(flip(fw)) == fields(w)


def constructed_as_before(prefix, period, phase):
    """The constructor as it was: the checked prefix prepended to `pure(period, phase)`
    by the letter-absorbing loop that `prepend_letters` ran on an empty prefix, each
    step a word built with `_make`; its slots are the new word's."""
    letters, w = check_letters(prefix), pure(period, phase)
    rot, r, k, back = w.rot, len(w.rot), len(letters), 0
    while k and letters[k - 1] == rot[(-1 - back) % r]:
        k, back = k - 1, back + 1
    s = back % r
    return _make(letters[:k], w.period, rot[r - s:] + rot[:r - s])


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.integers(-9, 9),
)
def test_the_constructor_builds_one_word_equal_to_the_old_construction(prefix, period, phase):
    built = []
    make = words._make
    words._make = lambda *args: built.append(args) or make(*args)
    try:
        w = TailWord(prefix, period, phase)
    finally:
        words._make = make
    assert built == []  # no intermediate word: the constructor fills its own slots
    assert fields(w) == fields(constructed_as_before(prefix, period, phase))


def test_the_constructor_checks_the_prefix_before_the_period():
    with pytest.raises(ValueError, match="invalid letter 3"):
        TailWord((1, 3), ())
    with pytest.raises(ValueError, match="invalid letter 0"):
        TailWord((1,), (0,))
    with pytest.raises(ValueError, match="period must be nonempty"):
        TailWord((1,), ())


def test_an_empty_period_is_refused():
    with pytest.raises(ValueError):
        pure(())
    with pytest.raises(ValueError):
        TailWord((1,), ())


def test_json_round_trip():
    w = TailWord((2, 1), (2, 1), 1)
    assert w.depth == 2  # genuinely canonical: nothing absorbs
    assert TailWord.from_json(w.to_json()) == w
    assert w.to_json() == {"prefix": "21", "period": "21", "phase": 1}
