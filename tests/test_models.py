import numpy as np
import pytest

from anyonwalk.errors import DomainError
from anyonwalk.models import (
    MAX_LEVEL,
    DoubleIrrepParams,
    build_dsn,
    build_su2k,
)


def test_level_two_data():
    m = build_su2k(2)
    assert abs(m.d - 1.4142136) < 1e-6
    assert abs(m.A - np.exp(1j * 5 * np.pi / 8)) < 1e-12
    # sigma x sigma = 1 + psi, sigma x psi = sigma, psi x psi = 1
    assert m.fusion_outcomes(1, 1) == [0, 2]
    assert m.fusion_outcomes(1, 2) == [1]
    assert m.fusion_outcomes(2, 2) == [0]


def test_level_six_dimension():
    assert abs(build_su2k(6).d - 1.8477590) < 1e-6


@pytest.mark.parametrize("k", [2, 3, 5, 8, 17])
def test_loop_value_identity(k):
    m = build_su2k(k)
    a = m.A
    assert abs((-a**2 - a**-2) - m.d) < 1e-12
    assert abs(abs(a) - 1.0) < 1e-12


def test_fusion_tensor_matches_the_triple_loop():
    for k in range(2, 81):
        nlab = k + 1
        expected = np.zeros((nlab, nlab, nlab), dtype=np.uint8)
        for a in range(nlab):
            for b in range(nlab):
                for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                    expected[a, b, c] = 1
        fusion = build_su2k(k).fusion
        assert fusion.dtype == np.uint8
        assert np.array_equal(fusion, expected)


def test_invalid_level_rejected():
    with pytest.raises(DomainError):
        build_su2k(1)
    with pytest.raises(DomainError, match="models.MAX_LEVEL"):
        build_su2k(MAX_LEVEL + 1)


def test_fusion_tensor_is_built_on_first_access():
    m = build_su2k(MAX_LEVEL)
    assert m.loop_weights(MAX_LEVEL + 1)[-1] == pytest.approx(1.0)
    assert "fusion" not in vars(m)
    small = build_su2k(4)
    assert small.fusion is small.fusion
    assert "fusion" in vars(small)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_fusion_tensor_properties(k):
    m = build_su2k(k)
    n = m.fusion.astype(int)
    nlab = k + 1
    assert n.max() < 2
    assert np.array_equal(n, n.transpose(1, 0, 2))  # commutativity
    assert np.array_equal(n[0], np.eye(nlab, dtype=int))  # vacuum is the unit
    # associativity at the multiplicity level
    lhs = np.einsum("abe,ecf->abcf", n, n)
    rhs = np.einsum("bcg,agf->abcf", n, n)
    assert np.array_equal(lhs, rhs)


def test_dimension_increases_and_saturates():
    ds = [build_su2k(k).d for k in (2, 10, 100)]
    assert ds[0] < ds[1] < ds[2] < 2.0
    assert abs(ds[2] - 2.0) < 1e-3


def test_double_irrep_params():
    p = build_dsn(5)
    assert p.dim == 10
    assert build_dsn(9).dim == 36
    with pytest.raises(DomainError):
        DoubleIrrepParams(4)


@pytest.mark.parametrize("k", [2, 3, 10, 3000])
def test_loop_weights_are_the_quantum_integers(k):
    m = build_su2k(k)
    w = m.loop_weights(k + 1)
    assert len(w) == k + 1 and w[0] == 1.0
    assert w[1] == pytest.approx(m.d, abs=1e-12)
    # w(q) w(1) = w(q-1) + w(q+1), the walker's step rule, and w(k) = 1
    for q in range(1, k):
        assert w[q] * w[1] == pytest.approx(w[q - 1] + w[q + 1], abs=1e-9)
    assert w[k] == pytest.approx(1.0, abs=1e-9)
    assert m.loop_weights(3) == w[:3]
    with pytest.raises(DomainError, match="lacks labels"):
        m.loop_weights(k + 2)
