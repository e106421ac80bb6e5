/*
 * SpMM merge: scatter-accumulate an epoch's chunks of nonzeros into the
 * float64 output accumulator.
 *
 * The chunks are a table of segments in dispatch order, row s being
 * (input offset, count, output start) of the id and value arrays (the
 * output start is the SDDMM merge's; it is not read here).  For each
 * segment in order, the loop
 * np.add.at(d, r[seg], v[seg][:, None].astype(float64) * b[c[seg]])
 * performs: for each nonzero i of the segment in order and each j < k,
 *
 *     d[r[i], j] += (double)v[i] * b[c[i], j]
 *
 * one rounded multiply, then one rounded add, in nonzero order, so a
 * row hit by several nonzeros accumulates them in the same order and
 * the bits come out the same.  Built with -ffp-contract=off: a fused
 * multiply-add would skip the product's rounding.
 *
 * Every segment and every index is checked before anything is written;
 * a refused table returns -1 and leaves d untouched.
 */

#include <stdint.h>

int64_t repro_spmm_merge(
    double *d, int64_t rows,
    const double *b, int64_t b_rows, int64_t k,
    const int64_t *r, const int64_t *c, const float *v, int64_t n,
    const int64_t *segs, int64_t n_segs)
{
    for (int64_t s = 0; s < n_segs; s++) {
        int64_t off = segs[3 * s], cnt = segs[3 * s + 1];
        if (off < 0 || cnt < 0 || off > n - cnt)
            return -1;
        for (int64_t i = off; i < off + cnt; i++)
            if (r[i] < 0 || r[i] >= rows || c[i] < 0 || c[i] >= b_rows)
                return -1;
    }
    for (int64_t s = 0; s < n_segs; s++) {
        int64_t off = segs[3 * s], end = off + segs[3 * s + 1];
        for (int64_t i = off; i < end; i++) {
            double *dst = d + r[i] * k;
            const double *src = b + c[i] * k;
            double x = (double)v[i];
            for (int64_t j = 0; j < k; j++)
                dst[j] += x * src[j];
        }
    }
    return 0;
}
