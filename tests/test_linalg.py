"""Sparse exact elimination against dense Fraction elimination."""

import copy
import math
import random
from fractions import Fraction

import hilali.linalg
from hilali.linalg import Echelon, Rref, intify, kernel_of_rows, rank_of_rows

from dense_oracle import dense_rank


def _random_sparse(rng, rows, cols, density=0.4):
    out = []
    for _ in range(rows):
        row = {}
        for c in range(cols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if v:
                    row[c] = v
        out.append(row)
    return out


def _integral(row):
    # denominators of _random_sparse entries divide 12
    return {c: int(v * 12) for c, v in row.items()}


def _densify(rows, cols):
    return [[row.get(c, Fraction(0)) for c in range(cols)] for row in rows]


def test_rank_matches_dense_oracle():
    rng = random.Random(9)
    for _ in range(30):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_sparse(rng, r, c)
        dense = dense_rank(_densify(rows, c))
        assert rank_of_rows([intify(row)[0] for row in rows]) == dense
        assert rank_of_rows([_integral(row) for row in rows]) == dense


def test_intify_takes_integer_rows_as_they_are():
    assert intify({0: 3, 2: 0, 5: -4}) == ({0: 3, 5: -4}, 1)
    assert intify({1: 6, 2: Fraction(1, 4), 3: 0}) == ({1: 24, 2: 1}, 4)
    for row in ({0: Fraction(2), 1: -1}, {0: 2, 1: -1}):
        irow, scale = intify(row)
        assert (irow, scale) == ({0: 2, 1: -1}, 1)
        assert all(type(v) is int for v in irow.values())


def test_kernel_vectors_annihilate_rows():
    rng = random.Random(10)
    for _ in range(25):
        r, c = rng.randint(1, 8), rng.randint(1, 6)
        rows = [intify(row)[0] for row in _random_sparse(rng, r, c)]
        kernel = kernel_of_rows(rows, c)
        rank = rank_of_rows(rows)
        assert len(kernel) == r - rank
        for vec in kernel:
            combo = {}
            for i, coeff in vec.items():
                for col, val in rows[i].items():
                    combo[col] = combo.get(col, Fraction(0)) + coeff * val
            assert all(v == 0 for v in combo.values())


def test_kernel_canonical_under_permutation():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {1: Fraction(1)}]
    kernel = kernel_of_rows([intify(row)[0] for row in rows], 2)
    assert len(kernel) == 1
    # the dependency 2*row0 - row1 = 0, echelon-normalized
    [vec] = kernel
    assert vec == {0: Fraction(2), 1: Fraction(-1)} or vec == {0: Fraction(-2), 1: Fraction(1)}


def test_rref_reduce_is_canonical_and_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        rows = [intify(row)[0] for row in _random_sparse(rng, 6, 6)]
        rref = Rref()
        integral = Rref()
        for row in rows:
            rref.add(row)
            integral.add(_integral(row))
        assert integral.pivots == rref.pivots
        pivots = set(rref.pivots)
        probe = intify(_random_sparse(rng, 1, 6)[0])[0]
        reduced, scale = rref.reduce(probe)
        assert not (set(reduced) & pivots)
        assert rref.reduce(reduced) == (reduced, 1)
        # rows of the space reduce to zero
        for row in rows:
            assert rref.reduce(row) == ({}, 1)


def test_rref_rows_clean_of_foreign_pivots():
    rng = random.Random(14)
    for _ in range(20):
        rows = _random_sparse(rng, 7, 7)
        rref = Rref()
        for row in rows:
            rref.add(intify(row)[0])
        pivots = set(rref.pivots)
        for col, row in rref.reduced().items():
            assert set(row) & pivots == {col}


def test_rref_reduced_form_and_remainder_ignore_insertion_order():
    rng = random.Random(15)
    for _ in range(20):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        rows = [intify(row)[0] for row in _random_sparse(rng, r, c)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        first, second = Rref(), Rref()
        for row in rows:
            first.add(row)
        for row in shuffled:
            second.add(row)
        assert first.reduced() == second.reduced()
        probe = intify(_random_sparse(rng, 1, c)[0])[0]
        assert first.reduce(probe) == second.reduce(probe)
        for row in rows:
            assert first.reduce(row) == ({}, 1)
            assert second.reduce(row) == ({}, 1)


def test_echelon_rank_only():
    ech = Echelon()
    assert ech.add({0: 1, 1: 2}) == 0
    assert ech.add({0: 2, 1: 4}) is None
    assert ech.add({1: 5}) == 1
    assert ech.rank == 2
    assert not ech.reduce({0: 3, 1: 6})
    assert ech.reduce({2: 1})


def test_negative_columns_supported():
    # leading-monomial pivots are encoded as negated indices
    rref = Rref()
    rref.add({-3: 2, -1: 4})
    rref.add({-2: 1})
    assert set(rref.pivots) == {-3, -2}
    assert rref.reduce({-3: 1}) == ({-1: -2}, 1)


def _aliasing_rows(rng):
    # integer rows, several already primitive with a positive lead (so
    # they can be stored with no elimination), unit and non-unit leads
    rows = [{0: 1, 3: 2}, {1: 3, 2: -6, 4: 1}, {2: 1, 4: -1}]
    rows += [_integral(row) for row in _random_sparse(rng, 5, 6)]
    return [row for row in rows if row]


def test_stored_pivots_never_alias_the_callers_rows(monkeypatch):
    rng = random.Random(16)
    stored = []

    class Recorded(Echelon):
        def __init__(self):
            super().__init__()
            stored.append(self)

    monkeypatch.setattr(hilali.linalg, "Echelon", Recorded)
    for _ in range(10):
        rows = _aliasing_rows(rng)
        ech, rref = Echelon(), Rref()
        for row in rows:
            ech.add(row)
            rref.add(row)
        stored.clear()
        rank_of_rows(rows)
        [ranked] = stored
        probes = [dict(row) for row in rows] + _random_sparse(rng, 3, 6)
        before = (copy.deepcopy(ech.pivots), copy.deepcopy(rref.pivots),
                  copy.deepcopy(ranked.pivots), rref.reduced(),
                  [ech.reduce(_integral(p)) for p in probes],
                  [rref.reduce(_integral(p)) for p in probes])
        for row in rows:
            for j in list(row):
                row[j] *= 7
            row[10] = 1
        assert (ech.pivots, rref.pivots, ranked.pivots, rref.reduced(),
                [ech.reduce(_integral(p)) for p in probes],
                [rref.reduce(_integral(p)) for p in probes]) == before


def test_reduce_never_mutates_its_argument():
    rng = random.Random(17)
    for _ in range(10):
        rows = _aliasing_rows(rng)
        ech, rref = Echelon(), Rref()
        for row in rows[:4]:
            ech.add(row)
            rref.add(row)
        for probe in rows + _random_sparse(rng, 4, 6):
            for space, arg in ((ech, _integral(probe)), (rref, _integral(probe))):
                kept = copy.deepcopy(arg)
                space.reduce(arg)
                assert arg == kept


def test_rref_reduce_returns_the_canonical_remainder_in_lowest_terms():
    # remainder / scale is the rational remainder: the same for every
    # representative of a class, and for every integer multiple of one,
    # with the scale sharing no factor with the whole remainder
    rng = random.Random(18)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(2, 8)
        rows = [intify(row)[0] for row in _random_sparse(rng, r, c)]
        rref = Rref()
        for row in rows:
            rref.add(row)
        probe = intify(_random_sparse(rng, 1, c)[0])[0]
        other = dict(probe)
        for row in rows:
            a = rng.randint(-3, 3)
            for j, v in row.items():
                other[j] = other.get(j, 0) + a * v
        other = {j: v for j, v in other.items() if v}

        def rational(row, factor=1):
            remainder, scale = rref.reduce({j: factor * v
                                            for j, v in row.items()})
            assert scale > 0 and all(type(v) is int
                                     for v in remainder.values())
            assert math.gcd(scale, *remainder.values()) == 1
            return {j: Fraction(v, scale * factor)
                    for j, v in remainder.items()}
        assert rational(probe) == rational(other) == rational(probe, 6)
