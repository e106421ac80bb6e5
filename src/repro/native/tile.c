/*
 * The tiled layout's entry order (Appendix A): sort a COO matrix's
 * entries by (row panel, column panel, row, column).
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
 * One pass computes the keys, checks every index and writes the
 * entries in input order; an input whose keys are already
 * non-decreasing (row-major COO with one column panel, the Base
 * setting) is then done.  Otherwise a stable LSD radix sort over the
 * keys, rebased to their minimum, orders the entries, and they are
 * written again in that order.  Stability keeps equal keys (repeated
 * coordinates) in input order, as lexsort does.
 *
 * The caller guarantees n < 2**32 (the sort's indices are 32-bit) and
 * a key span n_rp * n_cp * rps * cps below 2**63.  Returns 0, -1 when
 * an index lies outside the matrix (nothing meaningful is written) or
 * -2 when the sort's buffers cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

#define DIGIT_BITS 11
#define BUCKETS (1 << DIGIT_BITS)
#define DIGIT_MASK (BUCKETS - 1)

int64_t repro_tile(
    const int64_t *r, const int64_t *c, const float *v, int64_t n,
    int64_t rows, int64_t cols, int64_t rps, int64_t cps, int64_t n_cp,
    int64_t *r_out, int64_t *c_out, float *v_out, int64_t *tile_out)
{
    const int64_t area = rps * cps;
    uint64_t lo = UINT64_MAX, hi = 0, prev = 0;
    int sorted = 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t ri = r[i], cj = c[i];
        if (ri < 0 || ri >= rows || cj < 0 || cj >= cols)
            return -1;
        int64_t rp = ri / rps, cp = cj / cps;
        int64_t tile = rp * n_cp + cp;
        uint64_t key = (uint64_t)(
            (tile * rps + (ri - rp * rps)) * cps + (cj - cp * cps));
        if (key < prev)
            sorted = 0;
        prev = key;
        if (key < lo)
            lo = key;
        if (key > hi)
            hi = key;
        r_out[i] = ri;
        c_out[i] = cj;
        v_out[i] = v[i];
        tile_out[i] = tile;
    }
    if (sorted)
        return 0;

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
        return -2;
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
    for (int64_t i = 0; i < n; i++) {
        uint32_t j = i_src[i];
        r_out[i] = r[j];
        c_out[i] = c[j];
        v_out[i] = v[j];
        tile_out[i] = (int64_t)((k_src[i] + lo) / (uint64_t)area);
    }
    free(keys);
    free(idx);
    free(counts);
    return 0;
}
