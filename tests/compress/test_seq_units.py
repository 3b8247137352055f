"""Tests for the sequential-unit extension (the "seq" policy)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compress.ctl import FLAG_SEQ, CtlReader, CtlWriter, decode_units
from repro.compress.delta import MIN_SEQ_RUN, Unit, split_row_units
from repro.errors import EncodingError
from repro.formats import CSRDUMatrix, convert
from repro.formats.conversions import to_csr
from repro.matrices.generators import diagonal_bands


def reconstruct(units) -> list[int]:
    cols, col = [], 0
    for u in units:
        ucols = u.columns(col)
        col = int(ucols[-1])
        cols.extend(ucols.tolist())
    return cols


class TestSplitSeq:
    def test_contiguous_run_becomes_seq(self):
        cols = np.arange(100, 130)
        units = split_row_units(cols, 0, policy="seq")
        assert any(u.seq for u in units)
        assert reconstruct(units) == cols.tolist()
        seq = next(u for u in units if u.seq)
        assert seq.stride == 1

    def test_strided_run(self):
        cols = np.arange(0, 140, 7)  # stride 7
        units = split_row_units(cols, 0, policy="seq")
        seq = next(u for u in units if u.seq)
        assert seq.stride == 7
        assert reconstruct(units) == cols.tolist()

    def test_short_run_stays_plain(self):
        cols = np.array([0, 1, 2, 3, 100])  # run of 1s shorter than MIN_SEQ_RUN+1
        units = split_row_units(cols, 0, policy="seq")
        assert not any(u.seq for u in units)

    def test_mixed_plain_and_seq(self):
        cols = np.concatenate(
            [np.array([5, 900, 907]), np.arange(1000, 1020), np.array([5000])]
        )
        units = split_row_units(cols, 0, policy="seq")
        assert any(u.seq for u in units)
        assert any(not u.seq for u in units)
        assert reconstruct(units) == cols.tolist()

    def test_long_run_splits_at_max_unit(self):
        cols = np.arange(0, 600)
        units = split_row_units(cols, 0, policy="seq")
        assert all(u.usize <= 255 for u in units)
        # The leading 0-delta opens a plain singleton; the rest is seq.
        assert sum(u.usize for u in units if u.seq) >= 599
        assert reconstruct(units) == cols.tolist()

    def test_min_seq_run_constant(self):
        assert MIN_SEQ_RUN >= 3

    @given(
        st.lists(
            st.integers(min_value=0, max_value=3000), min_size=1, max_size=80
        ).map(lambda xs: np.asarray(sorted(set(xs)), dtype=np.int64))
    )
    def test_round_trip_property(self, cols):
        units = split_row_units(cols, 0, policy="seq")
        assert reconstruct(units) == cols.tolist()

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=6, max_value=300),
    )
    def test_pure_runs_compress_to_header_size(self, stride, count):
        """A pure constant-stride row costs O(units), not O(count)."""
        cols = np.arange(0, stride * count, stride)
        units = split_row_units(cols, 0, policy="seq")
        plain = split_row_units(cols, 0, policy="greedy")
        w_seq, w_plain = CtlWriter(), CtlWriter()
        for u in units:
            w_seq.append(u)
        for u in plain:
            w_plain.append(u)
        assert len(w_seq.getvalue()) <= len(w_plain.getvalue())


class TestSeqSerialization:
    def test_flag_round_trip(self):
        unit = Unit(
            row=0, new_row=True, row_jump=1, ujmp=3,
            deltas=np.full(10, 4, dtype=np.int64), cls=0, seq=True,
        )
        w = CtlWriter()
        w.append(unit)
        ctl = w.getvalue()
        assert ctl[0] & FLAG_SEQ
        out = list(CtlReader(ctl))[0]
        assert out.seq
        assert out.stride == 4
        assert out.deltas.tolist() == [4] * 10

    def test_wire_size_is_constant(self):
        """A seq unit's bytes don't grow with usize."""
        def size_of(count):
            u = Unit(
                row=0, new_row=True, row_jump=1, ujmp=1,
                deltas=np.ones(count, dtype=np.int64), cls=0, seq=True,
            )
            w = CtlWriter()
            w.append(u)
            return len(w.getvalue())

        assert size_of(200) == size_of(10) == 4  # flags+usize+ujmp+stride

    def test_nonconstant_deltas_rejected(self):
        unit = Unit(
            row=0, new_row=True, row_jump=1, ujmp=0,
            deltas=np.array([1, 2]), cls=0, seq=True,
        )
        with pytest.raises(EncodingError, match="constant"):
            CtlWriter().append(unit)

    def test_decode_units_offsets_with_seq(self):
        cols = np.arange(50, 90)
        units = split_row_units(cols, 0, policy="seq")
        w = CtlWriter()
        for u in units:
            w.append(u)
        ctl = w.getvalue()
        du = decode_units(ctl, cols.size)
        assert int(du.ctl_offsets[-1]) == len(ctl)
        assert du.seq.any()
        assert du.columns.tolist() == cols.tolist()


class TestSeqFormat:
    def test_diagonal_matrix_shrinks(self):
        csr = to_csr(diagonal_bands(300, tuple(range(-5, 6))))
        greedy = convert(csr, "csr-du", policy="greedy")
        seq = convert(csr, "csr-du", policy="seq")
        assert len(seq.ctl) < len(greedy.ctl)
        x = np.random.default_rng(0).random(300)
        assert np.allclose(seq.spmv(x), csr.spmv(x))

    def test_all_kernels_handle_seq(self):
        from repro.kernels.reference import spmv_csr_du_reference

        csr = to_csr(diagonal_bands(100, tuple(range(-3, 4))))
        du = CSRDUMatrix.from_csr(csr, policy="seq")
        x = np.random.default_rng(1).random(100)
        expected = csr.spmv(x)
        assert np.allclose(spmv_csr_du_reference(du, x), expected)
        assert np.allclose(du.spmv(x), expected)

    def test_traffic_accounts_seq(self):
        from repro.machine.traffic import analyze_threads

        csr = to_csr(diagonal_bands(200, tuple(range(-4, 5))))
        du = CSRDUMatrix.from_csr(csr, policy="seq")
        _, works = analyze_threads(du, 2)
        assert sum(w.seq_units for w in works) == int(du.units.seq.sum())
        assert sum(w.seq_elements for w in works) == int(
            du.units.sizes[du.units.seq].sum()
        )
        assert sum(w.private_bytes["ctl"] for w in works) == len(du.ctl)

    def test_model_rewards_seq(self):
        """Less ctl traffic + cheaper decode -> never slower at 8 threads."""
        from repro.machine.simulate import simulate_spmv
        from repro.machine.topology import clovertown_8core

        csr = to_csr(diagonal_bands(3000, tuple(range(-8, 9))))
        machine = clovertown_8core().scaled(0.002)
        t_greedy = simulate_spmv(
            convert(csr, "csr-du", policy="greedy"), 8, machine
        ).time_s
        t_seq = simulate_spmv(
            convert(csr, "csr-du", policy="seq"), 8, machine
        ).time_s
        assert t_seq <= t_greedy * 1.001

    def test_stride_requires_seq(self):
        u = Unit(
            row=0, new_row=True, row_jump=1, ujmp=0,
            deltas=np.array([1]), cls=0,
        )
        with pytest.raises(EncodingError):
            u.stride
