import random

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter, UnsupportedRing
from bigraded.matrices import ExactMatrix
from bigraded.chain import homology
from bigraded.bicomplex import (
    Bicomplex,
    bic_disc,
    bic_sphere,
    directional_subquotient,
    e2,
    h_boundary,
    v_boundary,
)
from bigraded.twisted import (
    TwistedComplex,
    direct_sum_twisted,
    embed,
    tot_twisted,
    twisted_boundary,
    twisted_disc,
    vertical_homology_twisted,
)
from bigraded import spectral
from bigraded.spectral import SpectralData, _PageWorker, convergence_check, pages
from bigraded.randgen import (
    random_bicomplex,
    random_bicomplex_map,
    random_twisted,
    random_twisted_map,
)
from bigraded.verify import e2_of_vertical


def dk_example(k):
    """One generator at (k, 0) hitting one at (0, k - 1) through the
    structure map d_k: pages one to k are nonzero, page k + 1 is empty."""
    return TwistedComplex(QQ, {(k, 0): 1, (0, k - 1): 1},
                          {k: {(k, 0): ExactMatrix.identity(QQ, 1)}})


def test_sphere_pages_constant():
    s = bic_sphere(2, 1, 1, QQ)
    data = pages(s)
    for r in range(1, data.stable_page + 1):
        assert data.page(r) == {(2, 1): 1}
    assert data.einf == {(2, 1): 1}


def test_disc_collapses_immediately():
    data = pages(bic_disc(2, 0, 1, QQ))
    assert all(not data.page(r) for r in range(1, data.stable_page + 1))
    assert convergence_check(bic_disc(2, 0, 1, QQ))["ok"]


def test_page_one_is_vertical_homology():
    for x in (h_boundary(2, 0, 1, QQ), v_boundary(2, 0, 1, QQ),
              bic_disc(3, 1, 1, QQ)):
        data = pages(x)
        hv = directional_subquotient(x, "v", "H")
        assert data.page(1) == {pq: r for pq, r in hv.ranks.items()}
    d = twisted_disc(3, 0, QQ)
    assert pages(d).page(1) == dict(vertical_homology_twisted(d).ranks)


def test_page_two_is_e2():
    for x in (h_boundary(2, 0, 1, QQ), v_boundary(2, 0, 1, QQ),
              bic_sphere(1, 1, 1, QQ)):
        assert pages(x).page(2) == {pq: d for pq, d in e2(x).items() if d}


def test_d2_example_runs_to_empty():
    x = dk_example(2)
    data = pages(x)
    assert data.page(1) == {(2, 0): 1, (0, 1): 1}
    assert data.page(2) == {(2, 0): 1, (0, 1): 1}
    assert data.differentials[2]  # the connecting map is nonzero
    assert data.page(3) == {}
    assert data.einf == {}
    assert homology(tot_twisted(x)) == {}
    assert convergence_check(x)["ok"]


def test_pages_monotone_and_d_squared_zero():
    rng = random.Random(4)
    for _ in range(6):
        x = random_twisted(rng, QQ, p_range=(0, 3), q_range=(-1, 1))
        data = pages(x)
        for r in range(1, data.stable_page):
            for pq, d in data.page(r + 1).items():
                assert d <= data.page(r).get(pq, 0)
            for (p, q), m in data.differentials.get(r, {}).items():
                nxt = data.differentials[r].get((p - r, q + r - 1))
                if nxt is not None:
                    assert (nxt @ m).is_zero


def test_convergence_on_random_objects():
    rng = random.Random(9)
    for _ in range(8):
        assert convergence_check(random_bicomplex(rng, QQ))["ok"]
        assert convergence_check(random_twisted(rng, QQ))["ok"]


def test_cells_converge():
    for p in range(4):
        assert convergence_check(twisted_disc(p, 0, QQ))["ok"]
        assert convergence_check(twisted_boundary(p, 0, QQ))["ok"]


def test_field_only():
    with pytest.raises(UnsupportedRing):
        pages(bic_disc(1, 0, 1, ZZ))
    with pytest.raises(UnsupportedRing):
        convergence_check(twisted_disc(1, 0, ZZ))


def test_stable_page_clamping():
    s = bic_sphere(0, 0, 1, GF(2))
    data = pages(s)
    assert data.page(50) == data.page(data.stable_page)


def test_pages_stop_at_r_max():
    # the (8, 0) cell has E_1 = 0, so pages 1..9 are all empty; r_max = 2
    # reports pages 1 and 2 only, and E-infinity on its own
    x = twisted_disc(8, 0, GF(3))
    full = pages(x)
    part = pages(x, r_max=2)
    assert sorted(full.pages) == list(range(1, 10))
    assert sorted(part.pages) == sorted(part.differentials) == [1, 2]
    assert part.einf == full.einf
    for r in (1, 2):
        assert part.page(r) == full.page(r)
        assert part.differentials[r] == full.differentials[r]
    for r in (3, 8):
        with pytest.raises(BadParameter):
            part.page(r)
    assert part.page(9) == part.page(50) == full.einf


@pytest.mark.parametrize("r_max", [0, -5])
def test_pages_refuse_a_bound_below_one(r_max):
    with pytest.raises(BadParameter, match="at least 1"):
        pages(twisted_disc(2, 0, GF(3)), r_max=r_max)
    # refused before a worker is built: over Z that would raise
    # UnsupportedRing
    with pytest.raises(BadParameter):
        pages(twisted_disc(2, 0, ZZ), r_max=r_max)
    assert sorted(pages(twisted_disc(2, 0, GF(3)), r_max=1).pages) == [1]


def test_pages_build_no_zero_matrices(monkeypatch):
    # the page worker reads the stored total differentials and skips an
    # absent one; slicing `tot.diff(n)` instead built 176 zero matrices
    # here
    import traceback

    real = ExactMatrix.zero
    calls = []

    def spy(*args):
        if any(fr.filename.endswith("spectral.py") for fr in traceback.extract_stack()):
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(ExactMatrix, "zero", staticmethod(spy))
    f3 = GF(3)
    cells = [twisted_disc(p, 0, f3) for p in range(8)]
    cells += [twisted_boundary(p, 0, f3) for p in range(1, 8)]
    for x in cells:
        pages(x)
        assert convergence_check(x)["ok"]
    assert calls == []


LARGE_PRIME = 4294967311


def _sympy_rank(m) -> int:
    """Rank computed by sympy, off the package's own elimination."""
    from sympy import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    if m.rows == 0 or m.cols == 0:
        return 0
    if m.ring.kind == "Q":
        dom = SymQQ
        conv = lambda x: dom(x.numerator, x.denominator)
    else:
        dom = SymGF(m.ring.p)
        conv = dom
    return DomainMatrix(
        [[conv(x) for x in row] for row in m.entries], (m.rows, m.cols), dom
    ).rank()


def _total_homology_dims(x) -> dict:
    t = tot_twisted(embed(x))
    dims = {
        n: t.rank(0, n) - _sympy_rank(t.diff(n)) - _sympy_rank(t.diff(n + 1))
        for n in t.degrees()
    }
    return {n: d for n, d in dims.items() if d}


def _spectral_inputs(ring, seed):
    objs = [twisted_disc(p, 0, ring) for p in range(5)]
    objs += [twisted_boundary(p, 0, ring) for p in range(1, 5)]
    rng = random.Random(seed)
    for _ in range(3):
        objs.append(random_bicomplex(rng, ring, p_range=(0, 3), q_range=(-1, 2)))
        objs.append(random_twisted(rng, ring, p_range=(0, 3), q_range=(-1, 2)))
    return objs


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(LARGE_PRIME)], ids=str)
def test_pages_against_independent_ranks(ring):
    for x in _spectral_inputs(ring, seed=17):
        data = pages(x)
        # each page is the homology of the previous one
        for r in range(1, data.stable_page):
            diffs = data.differentials.get(r, {})
            cur, nxt = data.page(r), data.page(r + 1)
            for (p, q) in set(cur) | set(nxt):
                out = diffs.get((p, q))
                into = diffs.get((p + r, q - r + 1))
                expect = (
                    cur.get((p, q), 0)
                    - (_sympy_rank(out) if out is not None else 0)
                    - (_sympy_rank(into) if into is not None else 0)
                )
                assert nxt.get((p, q), 0) == expect
        if isinstance(x, Bicomplex):
            page2 = e2(x)
        else:
            page2 = e2_of_vertical(vertical_homology_twisted(x))
        assert data.page(2) == {pq: d for pq, d in page2.items() if d}
        sums = {}
        for (p, q), d in data.einf.items():
            sums[p + q] = sums.get(p + q, 0) + d
        assert {n: d for n, d in sums.items() if d} == _total_homology_dims(x)


def _digest_objects():
    """The objects whose pages `tests/test_digest.py` pins, rebuilt from
    its seed by the same sequence of random constructions."""
    rng = random.Random(20180221)
    for ring in (QQ, GF(3), GF(2), ZZ):
        for _ in range(15):
            x = random_bicomplex_map(rng, ring).target
            if ring.is_field:
                yield x
    for ring in (QQ, GF(3), GF(2)):
        for _ in range(10):
            yield random_twisted_map(rng, ring).source
    for ring in (QQ, GF(3)):
        for _ in range(5):
            yield random_twisted(rng, ring, max_rank=3)
    for p in range(1, 6):
        yield twisted_disc(p, 0, GF(3))
        yield twisted_boundary(p, 0, GF(3))


def test_convergence_table_matches_all_pages():
    # the reference reads E-infinity off every page and totalises again
    n = 0
    for x in _digest_objects():
        einf = pages(x).einf
        h = homology(tot_twisted(embed(x)))
        expect = {}
        for deg in sorted(set(h) | {p + q for p, q in einf}):
            lhs = sum(d for (p, q), d in einf.items() if p + q == deg)
            expect[deg] = (lhs, h[deg].free_rank if deg in h else 0)
        assert convergence_check(x)["table"] == expect
        n += 1
    assert n == 95


# --- the page bookkeeping against the every-page loop ----------------------

def _reference_pages(x, r_max=None) -> SpectralData:
    """The loop `pages` ran before it tracked dimensions: every E-term of
    every page up to min(r_max, stable page), and E-infinity read from
    the stable page alone."""
    worker = _PageWorker(x)
    stable = worker.x.pmax + 1
    last = stable if r_max is None else min(r_max, stable)
    page_tables = {}
    diff_tables = {}
    for r in range(1, last + 1):
        terms = {}
        for (p, q) in sorted(worker.x.ranks):
            term = worker.e_term(r, p, q)
            if term.rank:
                terms[(p, q)] = term
        page_tables[r] = {pq: term.rank for pq, term in terms.items()}
        diffs = {}
        for (p, q), term in terms.items():
            target = terms.get((p - r, q + r - 1))
            if target is None:
                continue
            image = worker.boundary(p + q, term.reps, target.n)
            if image is None:
                continue
            m = target.classes(image)
            if not m.is_zero:
                diffs[(p, q)] = m
        diff_tables[r] = diffs
    return SpectralData(worker.ring, page_tables, diff_tables, stable, worker.einf())


def _fast_path_inputs():
    yield from _digest_objects()
    f3, big = GF(3), GF(LARGE_PRIME)
    for p in range(8):
        yield twisted_disc(p, 0, f3)
        yield twisted_boundary(p, 0, f3)
    for p in range(5):
        yield twisted_disc(p, 0, big)
        yield twisted_boundary(p, 0, big)
    rng = random.Random(26)
    for ring in (QQ, GF(2), f3):
        for _ in range(4):
            yield random_bicomplex(rng, ring, p_range=(0, 3), q_range=(-1, 2))
            yield random_twisted(rng, ring, p_range=(0, 3), q_range=(-1, 2))
    for k in range(1, 7):
        yield dk_example(k)
        yield direct_sum_twisted([dk_example(k), twisted_boundary(3, 0, QQ)])


def _in_order(data: SpectralData) -> tuple:
    """Every output of `pages`, with the order of each table's keys."""
    return (
        [(r, list(t.items())) for r, t in data.pages.items()],
        [(r, list(t.items())) for r, t in data.differentials.items()],
        list(data.einf.items()),
        data.stable_page,
    )


@pytest.mark.parametrize("r_max", [None, 1, 2, 3, 5])
def test_pages_match_the_every_page_loop(r_max):
    for x in _fast_path_inputs():
        assert _in_order(pages(x, r_max)) == _in_order(_reference_pages(x, r_max))


def test_pages_build_e_terms_only_where_a_page_is_nonzero(monkeypatch):
    real = _PageWorker.e_term
    built = []

    def spy(self, r, p, q):
        built.append(r)
        return real(self, r, p, q)

    monkeypatch.setattr(_PageWorker, "e_term", spy)
    # E_1 = 0: the d_0 ranks alone show that page 1 is E-infinity
    pages(twisted_disc(7, 0, GF(3)))
    assert built == []
    # E_2 = 0 = H(Tot)
    pages(twisted_boundary(7, 0, GF(3)))
    assert set(built) == {1}
    # d_k is nonzero, so the stop fires at page k + 1 and not before
    for k in range(1, 7):
        for x in (dk_example(k), direct_sum_twisted([dk_example(k), twisted_boundary(3, 0, QQ)])):
            built.clear()
            pages(x)
            assert sorted(set(built)) == list(range(1, k + 1))


def test_pages_refuse_an_e_term_off_its_tracked_dimension(monkeypatch):
    # with every d_0 rank read as 0, page 1 is tracked as the whole
    # object, and the first E-term built contradicts it
    monkeypatch.setattr(spectral, "rank", lambda m: 0)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        pages(twisted_boundary(3, 0, QQ))
