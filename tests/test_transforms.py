"""Unit tests for the affine transform and spreading operators."""

import numpy as np
import pytest

from afbm.transforms import (
    ChirpPair,
    DaftDims,
    apply_daft,
    apply_dft,
    apply_synthesis,
    apply_synthesis_adjoint,
    chirp_phase,
)
from oracles import (chirp_diag, daft_matrix, dft_matrix, freq_zero_pad,
                     synthesis_matrix, truncated_daft)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# DFT matrix
# ---------------------------------------------------------------------------

def test_dft_matrix_small_values():
    assert np.allclose(dft_matrix(1), [[1.0]])
    expected2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(dft_matrix(2), expected2, atol=1e-15)
    # +j kernel: entry (1, 1) of the 4-point matrix is exp(+j*pi/2)/2
    assert np.allclose(dft_matrix(4)[1, 1], 0.5j, atol=1e-15)


def test_dft_matrix_matches_ifft_kernel():
    rng = np.random.default_rng(11)
    for n in (2, 3, 8, 16):
        x = crandn(rng, n)
        assert np.allclose(dft_matrix(n) @ x, np.fft.ifft(x, norm="ortho"),
                           atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 257])
def test_dft_matrix_unitary(n):
    F = dft_matrix(n)
    assert np.abs(F.conj().T @ F - np.eye(n)).max() < 1e-12


def test_dft_matrix_rejects_bad_size():
    with pytest.raises(ValueError):
        dft_matrix(0)


def test_apply_dft_matches_matrix():
    rng = np.random.default_rng(12)
    for n in (2, 5, 32, 512):
        F = dft_matrix(n)
        x = crandn(rng, n)
        assert np.abs(apply_dft(x) - F @ x).max() < 1e-12
        assert np.abs(apply_dft(x, adjoint=True) - F.conj().T @ x).max() < 1e-12
    X = crandn(rng, 16, 3)
    assert np.abs(apply_dft(X) - dft_matrix(16) @ X).max() < 1e-12


# ---------------------------------------------------------------------------
# chirps and the affine transform
# ---------------------------------------------------------------------------

def test_chirp_phase_values():
    assert np.allclose(chirp_phase(0.0, 5), np.ones(5))
    # c = 1/4: m = 1 picks up exp(-j*pi/2) = -j
    assert np.allclose(np.diag(chirp_diag(0.25, 2)), [1.0, -1.0j], atol=1e-15)


def test_chirp_phase_unit_modulus():
    ph = chirp_phase(0.0371, 97)
    assert np.abs(np.abs(ph) - 1).max() < 1e-13


def test_chirp_phase_rejects_bad_args():
    with pytest.raises(ValueError):
        chirp_phase(0.1, 0)
    with pytest.raises(ValueError):
        chirp_phase(np.inf, 4)


def test_chirp_pair_validation():
    with pytest.raises(ValueError):
        ChirpPair(c1=-0.1)
    with pytest.raises(ValueError):
        ChirpPair(c1=np.nan)


@pytest.mark.parametrize("n", [2, 8, 64, 512])
@pytest.mark.parametrize("chirps", [ChirpPair(0.0, 0.0),
                                    ChirpPair(3 / 384, 0.0),
                                    ChirpPair(0.0137, 0.0071)])
def test_daft_matrix_unitary(n, chirps):
    W = daft_matrix(chirps, n)
    assert np.abs(W.conj().T @ W - np.eye(n)).max() < 1e-12


def test_daft_reduces_to_dft_at_zero_rates():
    assert np.allclose(daft_matrix(ChirpPair(0.0, 0.0), 16), dft_matrix(16))


def test_apply_daft_matches_matrix():
    rng = np.random.default_rng(13)
    for chirps in (ChirpPair(0.011, 0.002), ChirpPair(0.011, 0.0)):
        for n in (4, 32, 512):
            W = daft_matrix(chirps, n)
            x = crandn(rng, n)
            assert np.abs(apply_daft(x, chirps) - W @ x).max() < 1e-12
            assert np.abs(apply_daft(x, chirps, adjoint=True)
                          - W.conj().T @ x).max() < 1e-12
        X = crandn(rng, 24, 5)
        W = daft_matrix(chirps, 24)
        assert np.abs(apply_daft(X, chirps) - W @ X).max() < 1e-12


def test_apply_daft_skips_a_zero_c2_exactly():
    # at c2 = 0 the skipped chirp is exp(0) = 1: the same bits as applying it
    rng = np.random.default_rng(14)
    chirps = ChirpPair(3 / 384, 0.0)
    X = crandn(rng, 192, 4)
    p1 = chirp_phase(chirps.c1, 192)[:, None]
    p2 = chirp_phase(0.0, 192)[:, None]
    assert np.array_equal(apply_daft(X, chirps),
                          p1 * np.fft.ifft(p2 * X, axis=0, norm="ortho"))
    assert np.array_equal(apply_daft(X, chirps, adjoint=True),
                          p2.conj() * np.fft.fft(p1.conj() * X, axis=0,
                                                 norm="ortho"))


# ---------------------------------------------------------------------------
# dimensions, truncation, zero padding
# ---------------------------------------------------------------------------

def test_daft_dims_validation():
    DaftDims(L=8, P=12, N=16)  # fine
    with pytest.raises(ValueError):
        DaftDims(L=6, P=12, N=16)   # L not divisible by 4
    with pytest.raises(ValueError):
        DaftDims(L=8, P=13, N=16)   # odd P
    with pytest.raises(ValueError):
        DaftDims(L=16, P=12, N=16)  # P < L
    with pytest.raises(ValueError):
        DaftDims(L=8, P=20, N=16)   # N < P
    with pytest.raises(ValueError):
        DaftDims(L=0, P=12, N=16)


def test_truncated_daft_rows_orthonormal():
    dims = DaftDims(L=16, P=24, N=32)
    Wt = truncated_daft(dims, ChirpPair(0.01, 0.003))
    assert Wt.shape == (16, 24)
    assert np.abs(Wt @ Wt.conj().T - np.eye(16)).max() < 1e-12


def test_freq_zero_pad_layout():
    T = freq_zero_pad(8, 4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(T @ v, [3, 4, 0, 0, 0, 0, 1, 2])
    assert np.allclose(T.T @ T, np.eye(4))
    with pytest.raises(ValueError):
        freq_zero_pad(4, 8)
    with pytest.raises(ValueError):
        freq_zero_pad(9, 4)


# ---------------------------------------------------------------------------
# per-symbol synthesis operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [DaftDims(8, 12, 16), DaftDims(16, 24, 32),
                                  DaftDims(128, 192, 256)])
def test_synthesis_columns_orthonormal(dims):
    Q = synthesis_matrix(dims, ChirpPair(0.013, 0.004))
    assert Q.shape == (dims.N, dims.L)
    assert np.abs(Q.conj().T @ Q - np.eye(dims.L)).max() < 1e-10


def _random_dims(rng, kind):
    """Valid DaftDims of one kind: L <= P/2, L > P/2 (the L placed bins
    wrap past the origin at c2 = 0) or P = N."""
    L = 4 * int(rng.integers(1, 9))
    if kind == "narrow":
        P = 2 * int(rng.integers(L, L + 12))
    else:
        P = 2 * int(rng.integers(L // 2, L))
    N = P if kind == "square" else P + 2 * int(rng.integers(1, 16))
    return DaftDims(L, P, N)


def test_apply_synthesis_matches_dense():
    rng = np.random.default_rng(15)
    cases = [(DaftDims(8, 12, 16), ChirpPair(0.0, 0.0)),
             (DaftDims(16, 24, 32), ChirpPair(0.031, 0.007)),
             (DaftDims(32, 48, 64), ChirpPair(3 / 96, 0.0))]
    for dims, chirps in cases:
        Q = synthesis_matrix(dims, chirps)
        for _ in range(40):
            x = crandn(rng, dims.L)
            y = crandn(rng, dims.N)
            assert np.abs(apply_synthesis(x, dims, chirps) - Q @ x).max() < 1e-10
            assert np.abs(apply_synthesis_adjoint(y, dims, chirps)
                          - Q.conj().T @ y).max() < 1e-10
        X = crandn(rng, dims.L, 4)
        assert np.abs(apply_synthesis(X, dims, chirps) - Q @ X).max() < 1e-10
    # random dims of every kind, N = 2 mod 4 among them, and the reference
    # dims on an L x K x batch stack, with the P-point step skipped and run:
    # the adjoint reads the two runs of bins that the synthesis writes
    dims_rng = np.random.default_rng(14)
    spread_dims = [_random_dims(dims_rng, kind)
                   for kind in ("narrow", "wide", "square") for _ in range(3)]
    assert any(d.N % 4 == 2 for d in spread_dims)
    for dims in spread_dims:
        c1, c2 = rng.uniform(0, 0.05), rng.uniform(1e-3, 0.01)
        for chirps in (ChirpPair(c1, 0.0), ChirpPair(c1, c2)):
            Q = synthesis_matrix(dims, chirps)
            X = crandn(rng, dims.L, 3)
            Y = crandn(rng, dims.N, 3)
            assert np.abs(apply_synthesis(X, dims, chirps)
                          - Q @ X).max() < 1e-10
            assert np.abs(apply_synthesis_adjoint(Y, dims, chirps)
                          - Q.conj().T @ Y).max() < 1e-10
    # every valid dims up to N = 32, P = N, N = 2 mod 4 and L > P/2 (the run
    # of bins wraps past bin 0) among them, on an L x K x batch stack: the
    # synthesis keeps it Fortran-ordered
    every_dims = [DaftDims(L, P, N) for N in range(4, 33, 2)
                  for P in range(4, N + 1, 2) for L in range(4, P + 1, 4)]
    assert len(every_dims) == 372
    assert {(d.P == d.N, d.N % 4, 2 * d.L > d.P) for d in every_dims} == {
        (square, mod4, wide) for square in (False, True) for mod4 in (0, 2)
        for wide in (False, True)}
    for dims in every_dims:
        c1, c2 = rng.uniform(0, 0.05), rng.uniform(1e-3, 0.01)
        for chirps in (ChirpPair(c1, 0.0), ChirpPair(c1, c2)):
            Q = synthesis_matrix(dims, chirps)
            X = crandn(rng, dims.L, 2, 3)
            Y = crandn(rng, dims.N, 2, 3)
            S = apply_synthesis(X, dims, chirps)
            assert S.flags.f_contiguous
            assert np.abs(S - np.einsum("nl,lkb->nkb", Q, X)).max() < 1e-10
            assert np.abs(apply_synthesis_adjoint(Y, dims, chirps)
                          - np.einsum("nl,nkb->lkb", Q.conj(), Y)).max() < 1e-10
    dims = DaftDims(128, 192, 256)
    for chirps in (ChirpPair(3 / 384, 0.0), ChirpPair(3 / 384, 0.0023)):
        Q = synthesis_matrix(dims, chirps)
        X = crandn(rng, dims.L, 8, 3)
        Y = crandn(rng, dims.N, 8, 3)
        assert np.abs(apply_synthesis(X, dims, chirps)
                      - np.einsum("nl,lkb->nkb", Q, X)).max() < 1e-10
        assert np.abs(apply_synthesis_adjoint(Y, dims, chirps)
                      - np.einsum("nl,nkb->lkb", Q.conj(), Y)).max() < 1e-10


def test_apply_synthesis_round_trip_identity():
    dims = DaftDims(16, 24, 32)
    chirps = ChirpPair(0.009, 0.0)
    rng = np.random.default_rng(16)
    x = crandn(rng, 16)
    back = apply_synthesis_adjoint(apply_synthesis(x, dims, chirps),
                                   dims, chirps)
    assert np.abs(back - x).max() < 1e-12


def test_apply_synthesis_shape_errors():
    dims = DaftDims(8, 12, 16)
    chirps = ChirpPair(0.0, 0.0)
    with pytest.raises(ValueError):
        apply_synthesis(np.zeros(7, dtype=complex), dims, chirps)
    with pytest.raises(ValueError):
        apply_synthesis_adjoint(np.zeros(15, dtype=complex), dims, chirps)
