"""Unit tests for the COO format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.coo import COOMatrix
from repro.sparse.generators import rmat_graph, uniform_random
from repro.sparse.suite import SUITE

F32 = np.float32


class TestConstruction:
    def test_from_dense_roundtrip(self, tiny_matrix):
        dense = tiny_matrix.to_dense()
        again = COOMatrix.from_dense(dense)
        assert again == tiny_matrix

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            COOMatrix.from_dense(np.ones(4))

    def test_from_edges_sums_duplicates(self):
        edges = np.array([[0, 1], [0, 1], [2, 3]])
        vals = np.array([1.0, 2.0, 5.0], dtype=np.float32)
        m = COOMatrix.from_edges(4, 4, edges, vals)
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == pytest.approx(3.0)
        assert m.to_dense()[2, 3] == pytest.approx(5.0)

    def test_from_edges_default_values_are_ones(self):
        m = COOMatrix.from_edges(3, 3, np.array([[0, 0], [1, 2]]))
        assert set(np.unique(m.vals)) == {1.0}

    def test_from_edges_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(nnz, 2\)"):
            COOMatrix.from_edges(3, 3, np.array([0, 1, 2]))

    def test_from_scipy(self, tiny_matrix):
        sp = tiny_matrix.to_scipy()
        assert COOMatrix.from_scipy(sp) == tiny_matrix


class TestValidation:
    def test_rejects_row_out_of_range(self):
        with pytest.raises(ValueError, match="row index"):
            COOMatrix(2, 2, np.array([2]), np.array([0]), np.array([1.0]))

    def test_rejects_col_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            COOMatrix(2, 2, np.array([0]), np.array([5]), np.array([1.0]))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, np.array([-1]), np.array([0]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            COOMatrix(
                2, 2, np.array([0, 1]), np.array([0]), np.array([1.0])
            )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            COOMatrix(
                2, 2, np.array([0, 0]), np.array([1, 1]),
                np.array([1.0, 2.0]),
            )

    def test_empty_matrix_is_valid(self):
        m = COOMatrix(3, 3, np.array([]), np.array([]), np.array([]))
        assert m.nnz == 0
        assert m.density == 0.0

    def test_rejects_non_adjacent_duplicates_in_unsorted_input(self):
        with pytest.raises(ValueError, match="duplicate coordinates"):
            COOMatrix(
                4, 4, np.array([2, 0, 3, 1, 2]), np.array([3, 1, 0, 2, 3]),
                np.ones(5),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40
        )
    )
    def test_rejects_exactly_the_inputs_with_repeated_coordinates(
        self, coords
    ):
        r = np.array([rc[0] for rc in coords], dtype=np.int64)
        c = np.array([rc[1] for rc in coords], dtype=np.int64)
        if len(set(coords)) == len(coords):
            assert COOMatrix(6, 6, r, c, np.ones(len(r))).nnz == len(r)
        else:
            with pytest.raises(ValueError, match="duplicate coordinates"):
                COOMatrix(6, 6, r, c, np.ones(len(r)))


class TestOperations:
    def test_sorted_by_row(self, small_graph):
        s = small_graph.sorted_by_row()
        keys = s.r_ids * s.num_cols + s.c_ids
        assert np.all(np.diff(keys) > 0)
        assert s == small_graph

    def test_transpose_involution(self, random_rect):
        t = random_rect.transpose()
        assert t.shape == (random_rect.num_cols, random_rect.num_rows)
        assert t.transpose() == random_rect

    def test_transpose_dense_agrees(self, random_rect):
        np.testing.assert_allclose(
            random_rect.transpose().to_dense(), random_rect.to_dense().T
        )

    def test_row_col_counts_sum_to_nnz(self, small_graph):
        assert small_graph.row_nnz_counts().sum() == small_graph.nnz
        assert small_graph.col_nnz_counts().sum() == small_graph.nnz

    def test_iter_entries_matches_arrays(self, tiny_matrix):
        entries = list(tiny_matrix.iter_entries())
        assert len(entries) == tiny_matrix.nnz
        r, c, v = entries[0]
        assert tiny_matrix.to_dense()[r, c] == pytest.approx(v)

    def test_footprint_bytes(self, tiny_matrix):
        assert tiny_matrix.footprint_bytes() == tiny_matrix.nnz * 12
        assert tiny_matrix.footprint_bytes(index_bytes=8) == (
            tiny_matrix.nnz * 20
        )

    def test_equality_ignores_storage_order(self, tiny_matrix):
        perm = np.random.default_rng(0).permutation(tiny_matrix.nnz)
        shuffled = COOMatrix(
            tiny_matrix.num_rows,
            tiny_matrix.num_cols,
            tiny_matrix.r_ids[perm],
            tiny_matrix.c_ids[perm],
            tiny_matrix.vals[perm],
        )
        assert shuffled == tiny_matrix

    def test_inequality_different_values(self, tiny_matrix):
        other = COOMatrix(
            tiny_matrix.num_rows,
            tiny_matrix.num_cols,
            tiny_matrix.r_ids,
            tiny_matrix.c_ids,
            tiny_matrix.vals * 2,
        )
        assert other != tiny_matrix

    def test_repr_contains_shape_and_nnz(self, tiny_matrix):
        text = repr(tiny_matrix)
        assert "4x4" in text
        assert "nnz=7" in text


def _pairwise_sum(vals):
    """NumPy's float32 pairwise summation (``pairwise_sum`` in its add
    loop), written out: below 8 values one running sum from -0.0; up to
    128, eight strided running sums added as a tree, then the tail; above
    128, the two halves (split at a multiple of 8) summed apart."""
    n = len(vals)
    if n < 8:
        res = F32(-0.0)
        for v in vals:
            res = F32(res + v)
        return res
    if n <= 128:
        acc = list(vals[:8])
        i = 8
        while i < n - n % 8:
            acc = [F32(a + v) for a, v in zip(acc, vals[i:i + 8])]
            i += 8
        res = F32(
            F32(F32(acc[0] + acc[1]) + F32(acc[2] + acc[3]))
            + F32(F32(acc[4] + acc[5]) + F32(acc[6] + acc[7]))
        )
        for v in vals[i:]:
            res = F32(res + v)
        return res
    half = n // 2
    half -= half % 8
    return F32(_pairwise_sum(vals[:half]) + _pairwise_sum(vals[half:]))


def _from_edges_reference(edges, vals):
    """``from_edges`` in plain Python: row-major coordinates; each one's
    values, in input order, summed in float32 as ``np.add.reduceat``
    does, the first value plus the pairwise sum of the rest."""
    groups = {}
    for (r, c), v in zip(edges, vals):
        groups.setdefault((r, c), []).append(F32(v))
    coords = sorted(groups)
    return (
        np.array([r for r, _ in coords], dtype=np.int64),
        np.array([c for _, c in coords], dtype=np.int64),
        np.array(
            [F32(groups[rc][0] + _pairwise_sum(groups[rc][1:]))
             for rc in coords],
            dtype=np.float32,
        ),
    )


# Values whose float32 sums depend on the order and grouping of the
# additions (1 + 2**24 rounds back to 2**24), with both zeros.
ORDER_SENSITIVE = [1.0, -1.0, 2.0 ** 24, -(2.0 ** 24), 1e8, -1e8, 0.1,
                   3e-8, 0.0, -0.0]


class TestFromEdgesBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_edges_matches_the_python_reference(self, data):
        """Byte for byte, from empty and one-entry inputs to coordinates
        repeated far past 8 times (NumPy's pairwise blocks)."""
        shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
        coords = data.draw(st.lists(
            st.tuples(
                st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)
            ),
            max_size=data.draw(st.sampled_from([1, 12, 300])),
        ))
        vals = data.draw(st.lists(
            st.sampled_from(ORDER_SENSITIVE)
            | st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=len(coords), max_size=len(coords),
        ))
        edges = np.array(coords, dtype=np.int64).reshape(-1, 2)
        m = COOMatrix.from_edges(
            shape[0], shape[1], edges, np.array(vals, dtype=np.float32)
        )
        r, c, v = _from_edges_reference(coords, vals)
        assert m.shape == shape
        assert (m.r_ids.dtype, m.c_ids.dtype, m.vals.dtype) == (
            np.int64, np.int64, np.float32
        )
        assert m.r_ids.tobytes() == r.tobytes()
        assert m.c_ids.tobytes() == c.tobytes()
        assert m.vals.tobytes() == v.tobytes()

    @pytest.mark.parametrize("vals, want", [
        # The first value plus the sum of the rest: left to right the
        # first two cases would give 0.0 and 1.0.
        ([1.0, 1e8, -1e8], 1.0),
        ([-1e8, 1e8, 1.0], 0.0),
        ([1e8, 1.0, -1e8], 0.0),
        ([-0.0, -0.0, -0.0], -0.0),
    ])
    def test_three_way_duplicates_sum_in_reduceat_order(self, vals, want):
        edges = np.array([[1, 0], [0, 1], [1, 0], [1, 0]])
        m = COOMatrix.from_edges(
            2, 2, edges, np.array([vals[0], 7.0, *vals[1:]], dtype=F32)
        )
        assert (m.r_ids.tolist(), m.c_ids.tolist()) == ([0, 1], [1, 0])
        assert m.vals.tobytes() == np.array([7.0, want], F32).tobytes()

    def test_empty_input(self):
        m = COOMatrix.from_edges(3, 2, np.zeros((0, 2)))
        assert m.shape == (3, 2) and m.nnz == 0
        assert (m.r_ids.dtype, m.vals.dtype) == (np.int64, np.float32)

    def test_one_entry(self):
        m = COOMatrix.from_edges(2, 3, np.array([[1, 2]]), np.array([-0.0]))
        assert (m.r_ids.tolist(), m.c_ids.tolist()) == ([1], [2])
        assert m.vals.tobytes() == np.array([-0.0], F32).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_wide_keys_take_the_stable_argsort(self, data):
        """A 2**31 x 2**31 shape leaves no room to pack an index beside
        a key, so the stable ``argsort`` orders the edges; it gives the
        reference's bytes, and the packed sort's on the same edges in a
        small shape."""
        coords = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=2, max_size=40,
        ))
        vals = data.draw(st.lists(
            st.sampled_from(ORDER_SENSITIVE),
            min_size=len(coords), max_size=len(coords),
        ))
        edges = np.array(coords, dtype=np.int64)
        v = np.array(vals, dtype=np.float32)
        wide = COOMatrix.from_edges(2**31, 2**31, edges, v)
        narrow = COOMatrix.from_edges(4, 4, edges, v)
        r, c, want = _from_edges_reference(coords, vals)
        for m in (wide, narrow):
            assert m.r_ids.tobytes() == r.tobytes()
            assert m.c_ids.tobytes() == c.tobytes()
            assert m.vals.tobytes() == want.tobytes()

    def test_shapes_past_an_int64_key_are_refused(self):
        """Past ``2**63 - 1`` cells a ``row * num_cols + col`` key would
        wrap silently; up to it the last cell keeps its coordinates."""
        with pytest.raises(ValueError, match="int64 key"):
            COOMatrix.from_edges(2**32, 2**31, np.array([[0, 0]]))
        cols = (2**63 - 1) // 7  # 7 * cols == 2**63 - 1
        m = COOMatrix.from_edges(7, cols, np.array([[6, cols - 1], [0, 0]]))
        assert m.r_ids.tolist() == [0, 6]
        assert m.c_ids.tolist() == [0, cols - 1]

    @pytest.mark.parametrize("edges", [
        [[0, 0], [0, 3]], [[0, 0], [0, -1]], [[3, 0]], [[-1, 1]],
    ], ids=["col-past", "col-negative", "row-past", "row-negative"])
    def test_edges_outside_the_shape_are_refused(self, edges):
        """A column past the last would otherwise land in the next row."""
        with pytest.raises(ValueError, match="index out of range"):
            COOMatrix.from_edges(3, 3, np.array(edges))

    def test_one_value_per_edge(self):
        with pytest.raises(ValueError, match="one value per edge"):
            COOMatrix.from_edges(3, 3, np.array([[0, 0], [1, 1]]), [1.0])


class TestTrustedConstruction:
    def test_public_construction_still_validates(self):
        with pytest.raises(ValueError, match="duplicate"):
            COOMatrix(3, 3, [0, 0], [1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            COOMatrix(3, 3, [0, 3], [1, 1], [1.0, 2.0])

    def test_trusted_skips_the_checks_and_coerces(self):
        m = COOMatrix.trusted(3, 3, [0, 0], [1, 1], [1.0, 2.0])
        assert (m.r_ids.dtype, m.c_ids.dtype, m.vals.dtype) == (
            np.int64, np.int64, np.float32
        )
        with pytest.raises(ValueError, match="duplicate"):
            m.validate()

    def test_derived_matrices_are_valid(self, random_rect):
        from repro.core.accelerator import sddmm_output_to_coo
        from repro.kernels.reference import sddmm_reference
        from repro.sparse.tiled import tile_matrix

        rng = np.random.default_rng(0)
        b = rng.random((random_rect.num_rows, 4), dtype=np.float32)
        c = rng.random((random_rect.num_cols, 4), dtype=np.float32)
        tiled = tile_matrix(random_rect, 8, 8)
        derived = [
            random_rect.transpose(),
            random_rect.sorted_by_row(),
            sddmm_reference(random_rect, b, c),
            tiled.to_coo(),
            sddmm_output_to_coo(tiled, np.zeros(tiled.out_vals_length)),
        ]
        for m in derived:
            m.validate()
            assert type(m) is COOMatrix
        assert derived[0].transpose() == random_rect
        assert derived[3] == random_rect


# sha256 of r_ids, c_ids and vals of the perfbench inputs and the ten
# tiny suite matrices.  The perfbench oracle, tests/golden and
# benchmarks/results all hang on these bytes.
GENERATED_SHA256 = {
    "uniform": (
        "f990bbd47f674d6baa88610fe2090e83aad33408734d42e9cac3c2bbd5f839b7",
        "abd66c44c6c38ab78608052fc2bd369c96afc95ca315395acac5c5358018226b",
        "fded2685a68674ff5b7a01015983e1f6c7aabedaa0d0dfba4244b065d81b505d",
    ),
    "rmat": (
        "147def2490ecd41290d457b63f2c18e485e3edf2c3f37838bd50e76e1f8673bb",
        "69b0c9593c9e7ac3f7de6d61ffc05c81bed131ee5d72666976582872dccdb9d3",
        "e3ad7596ae320b5bc99ebac45104ec95cfd882bffb336595c0a1f336bf07533c",
    ),
    "ASI": (
        "8eedd9b73b931611f2fc21d44f031188713157d7f09697da661e372489b7335f",
        "8f11ab583ef74a4333af68d8308f48a30e9d8b349606a8bb18608868737956e0",
        "ebb10b267df661ff3e578774c7a50a54c2df2c2fda8f4383693ba055580fabe1",
    ),
    "LIV": (
        "1c3e0f0dd888cec4fa7df539c39ceeb492ed2b40cada324c226bbe6331f28b25",
        "a31b93adc4fd7d7d7906f3220fdefb32a08d47b4ddb114d65a6c7e27396c643d",
        "0742745b80695e9e76b3f12431338b1ef46ee4b44f8fd389c67f948ec9ccf693",
    ),
    "ORK": (
        "d66c428196f3dd6acdc665c99906f076dc238b35a79dc1e97c57dfb3bbb08aae",
        "8ff331ee80ad618a841de1b8fe6be7dab734f02f5ffb345fec50e70fe3650bf0",
        "1a77228d22bae9e64ffb712cef7dbd58b64d4a94bd13a5a8ceeea5061bc21be1",
    ),
    "PAP": (
        "eb62978f42eacef64e95415a19995c65103eb73bd025e703121d43747ff7e1fc",
        "3a7b00cfc4ec0865f8ab0ce4e8924f5cce208bb13b403c891b0cbc49c2d45bc6",
        "b02731a6459376ffa69a1c1f1e3e278298ddc8450f339cb9d358c02d8cfe8836",
    ),
    "DEL": (
        "f4b7fb8ffe9b9e33f844edd3ccdbcbfc01758224e0ead4379818bffd02695f56",
        "608d6f1037cecfdc1e55a1d4669fd5cd45a5e539ac08161322b969fb9b0e37fe",
        "e377d9a0016c223c4b4e3875b515326bdb6ba6d6ede8b6f060836937652cc76d",
    ),
    "KRO": (
        "78eca4f0da2d7adbeb1eaf73f67b8c14f4968602bb8dbf0c0955487f20057c42",
        "133a3448ab55cec3eacb6fd7568a0935666c59937a0fe5cd96fca6d528a43162",
        "ea0c1cbc4d99b24406bc058c77beded868179ae7abca07787dc2c27e76408a2a",
    ),
    "MYC": (
        "ef7f43ef97acaf197c077c7838b5f104cd1c7a4736ead9104049cd4b53276f78",
        "5d105e0a77450490ed8fc2eca16b6b6bf6044b4ad7591eb89e42f2f0f10da672",
        "5900a7f9c4abb51744a627861d07e8cd0a84e8748ca52c08968cc9923622359e",
    ),
    "PAC": (
        "b4c3467ac26c68cc47d035bd3c27ba04685ab587cd3120cd1d372891fcdd6bd4",
        "afe81fe970abc7c612df12618413ac7b747982a6b6b6f5f3df265231e2aaba31",
        "92c3907421a51339fb7e1878344973fef639a9c928a5f8acc6c1616a64ec5c84",
    ),
    "ROA": (
        "4a9f19640dfa9c4ed27d773389773bddf4c721bea791daf33aa3871e7d877d07",
        "a8e51329a8d3fd77214b3e2cee226a3425d3e3900e5ab8378f514a3c8c38ca47",
        "c2f48cccad4bd9f4564e2c27aed5b2f2ed4ffc460e654850f2f3e3ed114a242a",
    ),
    "SER": (
        "25840ff28ec46e35de0cecd1fca727b8b2a17119728b622c5f9154929df474f3",
        "ea163448b5ccca5c3266b2a716e06ae7d2c2573565913ddd6d28d33c3dbf361c",
        "f3aa1c3473d303298aaf61cb8ebb115124b2eb9013b5cf574decb876a433afaf",
    ),
}


def _generated(name):
    if name == "uniform":
        return uniform_random(8192, 256, nnz=1_000_000, seed=3)
    if name == "rmat":
        return rmat_graph(13, edge_factor=16, seed=3)
    return next(b for b in SUITE if b.name == name).build("tiny")


@pytest.mark.parametrize("name", sorted(GENERATED_SHA256))
def test_generated_matrices_keep_their_bytes(name):
    m = _generated(name)
    assert tuple(
        hashlib.sha256(a.tobytes()).hexdigest()
        for a in (m.r_ids, m.c_ids, m.vals)
    ) == GENERATED_SHA256[name]
