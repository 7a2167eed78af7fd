import pytest

from spolink.characters import ch_H0_sl2, ch_L_sl2, peel
from spolink.padic import defect
from spolink.sl2 import decompose_sl2, linked_sl2

PRIMES = (3, 5, 7)


def test_decompose_known():
    assert decompose_sl2(3, 3) == {3, 1}
    assert decompose_sl2(2, 3) == {2}
    for p in PRIMES:
        for k in range(p):
            assert decompose_sl2(k, p) == {k}
        assert decompose_sl2(p - 1, p) == {p - 1}
    with pytest.raises(ValueError):
        decompose_sl2(-1, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_decompose_equals_peel(p):
    for k in range(0, 400):
        want = peel(ch_H0_sl2(k), lambda w: ch_L_sl2(w, p))
        assert dict.fromkeys(decompose_sl2(k, p), 1) == want


@pytest.mark.parametrize("p", PRIMES)
def test_character_conservation(p):
    for k in range(0, 200):
        total: dict[int, int] = {}
        for hw in decompose_sl2(k, p):
            for w, c in ch_L_sl2(hw, p).items():
                total[w] = total.get(w, 0) + c
        assert total == ch_H0_sl2(k)


def test_linked_known():
    assert linked_sl2(1, 3, 3) is True
    assert linked_sl2(0, 2, 3) is False
    for p in PRIMES:
        for k in (0, 1, 7, 30):
            assert linked_sl2(k, k, p) is True
    # same coarse congruence class but different defects
    assert linked_sl2(2, 8, 3) is False


def test_linked_symmetry():
    for p in PRIMES:
        for l in range(60):
            for k in range(60):
                assert linked_sl2(l, k, p) == linked_sl2(k, l, p)


@pytest.mark.parametrize("p", PRIMES)
def test_factors_are_linked_with_equal_defect(p):
    for k in range(0, 400):
        for l in decompose_sl2(k, p):
            assert defect(l, p) == defect(k, p)
            assert linked_sl2(l, k, p)


def test_shared_factor_components_refine_linkage():
    # window closure of the shared-factor relation never crosses a linkage
    # class (the closed form may connect more, via modules outside the window)
    p = 3
    parent = {l: l for l in range(201)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(201):
        for l in decompose_sl2(k, p):
            if l <= 200:
                parent[find(l)] = find(k)
    for l in range(201):
        assert linked_sl2(l, find(l), p)
