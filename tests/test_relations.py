"""The relation checker and the totalisation, against the per-pair
forms they replace.

`validate_twisted` reads the failing relations off the product of two
consecutive differentials of Tot, and `tot_twisted` shifts the rows of
each block into place.  Here both are compared, on seeded objects of
every carrier and ring, with and without perturbed entries, to the
checker that sums d_i d_j pair by pair at each bidegree and to the
differential assembled block by block through `summed`."""

import random

import pytest

from bigraded.rings import ZZ, QQ, GF
from bigraded.matrices import ExactMatrix
from bigraded.bicomplex import bic_disc, h_boundary
from bigraded.randgen import random_bicomplex, random_chain_complex, random_twisted
from bigraded.twisted import (
    TwistedComplex,
    summed,
    tot_layout,
    tot_twisted,
    twisted_boundary,
    twisted_disc,
    validate_twisted,
)

RINGS = (ZZ, QQ, GF(2), GF(3))


def _relation_name(n: int) -> str:
    if n == 0:
        return "d_0^2 != 0"
    if n == 1:
        return "d_0 and d_1 do not anticommute"
    return f"relation n={n} fails"


def _reference_failures(x) -> list:
    """The relations of x that fail, summed as d_i d_j pair by pair at
    each bidegree, sorted by relation, then by the place of the
    bidegree in x.ranks.  The shapes of x must fit its ranks."""
    fails = []
    for k, (p, q) in enumerate(x.ranks):
        sums = {}
        for j, fam_j in x.ds.items():
            first = fam_j.get((p, q))
            if first is None:
                continue
            mid = (p - j, q + j - 1)
            for i, fam_i in x.ds.items():
                second = fam_i.get(mid)
                if second is not None:
                    term = second @ first
                    sums[i + j] = term if i + j not in sums else sums[i + j] + term
        fails.extend((n, k, p, q) for n, acc in sums.items() if not acc.is_zero)
    return [f"{_relation_name(n)} at ({p},{q})" for n, _, p, q in sorted(fails)]


def _reference_tot(x) -> dict:
    """degree n -> the differential of Tot x out of degree n, assembled
    from the blocks d_i through `summed`, for the n where one exists."""
    layouts = {n: tot_layout(x, n) for n in sorted({p + q for p, q in x.ranks})}
    d = {}
    for n, src in layouts.items():
        blocks = {
            ((p - i, q + i - 1), (p, q)): fam[(p, q)]
            for (p, q) in src
            for i, fam in x.ds.items()
            if (p, q) in fam
        }
        if blocks:
            d[n] = summed(x.ring, layouts[n - 1], src, blocks)
    return d


def _perturbed(rng, x, k):
    """x with k entries of its structure maps changed by a nonzero
    scalar, each in a block that is present or in one that could be:
    any d_i whose source and target both carry a rank."""
    ring = x.ring
    slots = sorted(
        (i, (p, q))
        for i in range(x.pmax + 1)
        for (p, q) in x.ranks
        if (p - i, q + i - 1) in x.ranks
    )
    ds = {i: dict(fam) for i, fam in x.ds.items()}
    for _ in range(k if slots else 0):
        i, (p, q) = rng.choice(slots)
        rows, cols = x.rank(p - i, q + i - 1), x.rank(p, q)
        fam = ds.setdefault(i, {})
        m = fam.get((p, q)) or ExactMatrix.zero(ring, rows, cols)
        dense = [list(r) for r in m.entries]
        r, c = rng.randrange(rows), rng.randrange(cols)
        dense[r][c] = ring.add(dense[r][c], ring.from_int(rng.choice([1, 2, -1])) or ring.one())
        fam[(p, q)] = ExactMatrix.from_rows(ring, dense)
    return TwistedComplex._of(ring, x.ranks, ds)


def _objects():
    """(name, object) for 360 seeded objects: chain complexes,
    bicomplexes, random twisted complexes and cells over each ring, with
    zero, one or two entries perturbed."""
    cells = [
        lambda ring: twisted_disc(2, 0, ring),
        lambda ring: twisted_disc(3, 1, ring),
        lambda ring: twisted_boundary(3, 0, ring),
        lambda ring: bic_disc(2, 1, 2, ring),
        lambda ring: h_boundary(2, 0, 1, ring),
    ]
    for ring in RINGS:
        rng = random.Random(f"relations {ring}")
        for n in range(90):
            kind = n % 6
            if kind == 0:
                x, name = random_chain_complex(rng, ring, degrees=(-1, 4)), "chain"
            elif kind in (1, 2):
                x, name = random_bicomplex(rng, ring), "bicomplex"
            elif kind in (3, 4):
                x, name = random_twisted(rng, ring), "twisted"
            else:
                x, name = cells[(n // 6) % len(cells)](ring), "cell"
            k = (n // 6) % 3
            yield f"{ring} {n} {name} k={k}", _perturbed(rng, x, k)


OBJECTS = list(_objects())


def test_checker_and_tot_match_the_per_pair_forms():
    failing = 0
    for name, x in OBJECTS:
        got = validate_twisted(x)
        assert got == _reference_failures(x), name
        failing += bool(got)
        d, ref = tot_twisted(x).d, _reference_tot(x)
        assert d == ref, name
        # the same rows in the same order of columns: eliminations pick
        # among tied pivots by that order
        assert [[list(r) for r in m.sparse_rows] for m in d.values()] == \
            [[list(r) for r in m.sparse_rows] for m in ref.values()], name
    assert len(OBJECTS) >= 300
    # a perturbation breaks many objects, but not every one
    assert len(OBJECTS) // 3 < failing < len(OBJECTS)


def test_one_product_per_total_degree(monkeypatch):
    products = []
    real = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda a, b: products.append(1) or real(a, b))
    valid = [x for _, x in OBJECTS if not _reference_failures(x)]
    valid.append(twisted_disc(5, 0, ZZ))
    assert len(valid) > 100
    for x in valid:
        products.clear()
        assert validate_twisted(x) == []
        assert len(products) <= len({p + q for p, q in x.ranks})


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_failures_name_the_bidegrees_of_a_cell(ring):
    # every entry of d_2 at (3, 0) of the cell at (3, 0), doubled: only
    # the relations that d_2 there enters can fail
    x = twisted_disc(3, 0, ring)
    ds = {i: dict(fam) for i, fam in x.ds.items()}
    ds[2][(3, 0)] = ds[2][(3, 0)].scale(2)
    y = TwistedComplex._of(ring, x.ranks, ds)
    got = validate_twisted(y)
    assert got and got == _reference_failures(y)
    assert all(msg.endswith("at (3,0)") for msg in got)
