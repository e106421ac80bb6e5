/*
 * The tiled layout (Appendix A): the entry order (row panel, column
 * panel, row, column) and the tile table, each non-empty tile's first
 * entry and id.
 *
 * Each entry's composite key
 *
 *     ((rp * n_cp + cp) * rps + r % rps) * cps + c % cps,
 *     rp = r / rps, cp = c / cps,
 *
 * orders exactly as the 4-tuple does: within a tile the panel ids are
 * fixed, and the in-tile part is below rps * cps.  Its quotient by
 * rps * cps is the entry's tile id, rp * n_cp + cp.  The twin is
 * np.lexsort((c, r, cp, rp)) (repro.sparse.tiled._order_twin).
 *
 * One scan computes the keys, checks every index and, while the keys
 * stay non-decreasing and the indices pass, writes the tile table: a
 * tile starts wherever the tile id changes.  Input already in tile
 * order (row-major COO with one column panel, the Base setting) is then
 * done, and its own arrays are the tiled ones: nothing is copied.
 * Given output arrays (the caller's second call, for input out of
 * order), a stable LSD radix sort over the keys, rebased to their
 * minimum, orders the entries, which are written in that order with the
 * tile table.  Stability keeps equal keys (repeated coordinates) in
 * input order, as lexsort does.
 *
 * starts and ids have room for every non-empty tile, min(n, n_rp *
 * n_cp) of them.  The caller guarantees n < 2**32 (the sort's indices
 * are 32-bit) and a key span n_rp * n_cp * rps * cps below 2**63.
 * Returns the number of tiles, or: ERR_OUTSIDE when an index lies
 * outside the matrix, ERR_ALLOC when the sort's buffers cannot be
 * allocated, ERR_UNORDERED when r_out is NULL and the input is not in
 * tile order (the caller allocates the outputs and calls again).
 * Nothing meaningful is written on an error.
 */

#include <stdint.h>
#include <stdlib.h>

#define DIGIT_BITS 11
#define BUCKETS (1 << DIGIT_BITS)
#define DIGIT_MASK (BUCKETS - 1)

#define ERR_OUTSIDE (-1)
#define ERR_ALLOC (-2)
#define ERR_UNORDERED (-3)

int64_t repro_tile(
    const int64_t *r, const int64_t *c, const float *v, int64_t n,
    int64_t rows, int64_t cols, int64_t rps, int64_t cps, int64_t n_cp,
    int64_t *r_out, int64_t *c_out, float *v_out,
    int64_t *starts, int64_t *ids)
{
    const int64_t area = rps * cps;
    uint64_t lo = UINT64_MAX, hi = 0, prev = 0;
    int sorted = 1, outside = 0;
    int64_t n_tiles = 0;
    uint64_t last = UINT64_MAX; /* no tile: the grid is below 2**63 */
    /* The last entry's panels and their first row and column: most
       entries share them with the one before, and skip the divisions.
       The arithmetic is unsigned, so that an index outside the matrix
       gives a wrong key (never read) but no overflow. */
    int64_t rp = 0, cp = 0, r0 = 0, c0 = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t ri = r[i], cj = c[i];
        outside |= ri < 0 || ri >= rows || cj < 0 || cj >= cols;
        if ((uint64_t)ri - (uint64_t)r0 >= (uint64_t)rps) {
            rp = ri / rps;
            r0 = rp * rps;
        }
        if ((uint64_t)cj - (uint64_t)c0 >= (uint64_t)cps) {
            cp = cj / cps;
            c0 = cp * cps;
        }
        uint64_t tile = (uint64_t)rp * n_cp + cp;
        uint64_t key = (tile * rps + ((uint64_t)ri - r0)) * cps
                       + ((uint64_t)cj - c0);
        if (key < prev)
            sorted = 0;
        prev = key;
        if (key < lo)
            lo = key;
        if (key > hi)
            hi = key;
        if (sorted && !outside && tile != last) {
            starts[n_tiles] = i;
            ids[n_tiles++] = (int64_t)tile;
            last = tile;
        }
    }
    if (outside)
        return ERR_OUTSIDE;
    if (!r_out || !n)
        return sorted ? n_tiles : ERR_UNORDERED;

    int passes = 0;
    for (uint64_t span = hi - lo; span; span >>= DIGIT_BITS)
        passes++;
    uint64_t *keys = malloc(2 * (size_t)n * sizeof *keys);
    uint32_t *idx = malloc(2 * (size_t)n * sizeof *idx);
    uint32_t *counts = calloc((size_t)passes * BUCKETS, sizeof *counts);
    if (!keys || !idx || !counts) {
        free(keys);
        free(idx);
        free(counts);
        return ERR_ALLOC;
    }
    uint64_t *k_src = keys, *k_dst = keys + n;
    uint32_t *i_src = idx, *i_dst = idx + n;
    for (int64_t i = 0; i < n; i++) {
        int64_t rp = r[i] / rps, cp = c[i] / cps;
        uint64_t key = (uint64_t)(
            ((rp * n_cp + cp) * rps + (r[i] - rp * rps)) * cps
            + (c[i] - cp * cps)) - lo;
        k_src[i] = key;
        i_src[i] = (uint32_t)i;
        for (int p = 0; p < passes; p++)
            counts[p * BUCKETS + ((key >> (p * DIGIT_BITS)) & DIGIT_MASK)]++;
    }
    for (int p = 0; p < passes; p++) {
        uint32_t *count = counts + p * BUCKETS;
        int shift = p * DIGIT_BITS;
        if (count[(k_src[0] >> shift) & DIGIT_MASK] == (uint32_t)n)
            continue;  /* one digit value throughout: the pass moves nothing */
        uint32_t sum = 0;
        for (int d = 0; d < BUCKETS; d++) {
            uint32_t x = count[d];
            count[d] = sum;
            sum += x;
        }
        for (int64_t i = 0; i < n; i++) {
            uint32_t at = count[(k_src[i] >> shift) & DIGIT_MASK]++;
            k_dst[at] = k_src[i];
            i_dst[at] = i_src[i];
        }
        uint64_t *kt = k_src; k_src = k_dst; k_dst = kt;
        uint32_t *it = i_src; i_src = i_dst; i_dst = it;
    }
    n_tiles = 0;
    last = UINT64_MAX;
    for (int64_t i = 0; i < n; i++) {
        uint32_t j = i_src[i];
        uint64_t tile = (k_src[i] + lo) / (uint64_t)area;
        r_out[i] = r[j];
        c_out[i] = c[j];
        v_out[i] = v[j];
        if (tile != last) {
            starts[n_tiles] = i;
            ids[n_tiles++] = (int64_t)tile;
            last = tile;
        }
    }
    free(keys);
    free(idx);
    free(counts);
    return n_tiles;
}
