import pytest
from hypothesis import given, strategies as st

from oracles import rotation_min_key
from wallkit.errors import EmptyRelator
from wallkit.words import (
    Word,
    concat,
    cyclic_reduce,
    cyclic_word_key,
    free_reduce,
    render,
    symmetrize,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=40).map(Word)


@pytest.mark.parametrize("letters", [[0], [1.5], ["a"], [1, 0, -1]])
def test_word_rejects_bad_letters(letters):
    with pytest.raises(ValueError, match="bad letter"):
        Word(letters)


def test_internal_constructions_keep_the_word_type():
    w = Word((1, 2, -1))
    for out in (w.inverse(), w.cyclic_shift(1), free_reduce(w), concat(w, w)):
        assert type(out) is Word
    assert (w.inverse(), w.cyclic_shift(1), concat(w, w)) == ((1, -2, -1), (2, -1, 1), (1, 2, -1, 1, 2, -1))


def test_free_reduce_examples():
    assert free_reduce(Word((1, -1))) == Word()
    assert free_reduce(Word((1, 2, -2, 1))) == Word((1, 1))
    w = Word((1, 2, -1))
    assert free_reduce(w) == w


@given(words)
def test_free_reduce_properties(w):
    r = free_reduce(w)
    assert r.is_freely_reduced()
    assert len(r) <= len(w)
    assert free_reduce(r) == r


@given(words)
def test_cyclic_reduce_recomposition(w):
    core, conj = cyclic_reduce(w)
    assert core.is_cyclically_reduced()
    recomposed = free_reduce(concat(conj, core, conj.inverse()))
    assert recomposed == free_reduce(w)
    assert (len(core) == 0) == (len(free_reduce(w)) == 0)


def test_cyclic_reduce_deep_conjugate():
    conj = Word((2, 3) * 10_000)
    core, found = cyclic_reduce(concat(conj, Word((1, 1)), conj.inverse()))
    assert core == Word((1, 1))
    assert found == conj and len(found) == 20_000


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(Word((1, 2, -1)))
    assert core == Word((2,)) and conj == Word((1,))
    w = Word((1, 2) * 7)
    core, conj = cyclic_reduce(w)
    assert core == w and conj == Word()


def test_symmetrize_counts():
    assert len(symmetrize([Word((1, 2))])) == 4
    # proper power: shifts collapse
    assert len(symmetrize([Word((1, 2, 1, 2))])) == 4
    assert symmetrize([Word((1, 1))]) == frozenset({Word((1, 1)), Word((-1, -1))})
    with pytest.raises(EmptyRelator):
        symmetrize([Word()])


@given(st.lists(words.map(lambda w: cyclic_reduce(w)[0]).filter(lambda w: len(w) > 0),
                min_size=1, max_size=3))
def test_symmetrize_closure(relators):
    s = symmetrize(relators)
    for w in s:
        assert w.inverse() in s
        for k in range(len(w)):
            assert w.cyclic_shift(k) in s


def test_primitive_period():
    assert Word((1, 2, 1, 2)).primitive_period() == 2
    assert Word((1, 2, 1)).primitive_period() == 3
    assert Word((1,) * 6).primitive_period() == 1


def test_cyclic_word_key_identifies_shifts_and_inverse():
    w = Word((1, 2, 2))
    assert cyclic_word_key(w) == cyclic_word_key(w.cyclic_shift(2))
    assert cyclic_word_key(w) == cyclic_word_key(w.inverse())


def test_render():
    names = ("a", "b")
    assert render(Word(), names) == "1"
    assert render(Word((1, 1, -2)), names) == "a^2b^-1"
    assert render(Word((1, 2)), ("a1", "x")) == "a1 x"


@given(st.lists(letters, max_size=12), st.integers(min_value=1, max_value=4))
def test_cyclic_word_key_matches_rotation_min_oracle(base, power):
    w = Word(base * power)  # proper powers when power > 1; empty when base is
    assert cyclic_word_key(w) == rotation_min_key(w)
