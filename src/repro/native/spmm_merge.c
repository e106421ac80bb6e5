/*
 * SpMM chunk merge: scatter-accumulate a chunk of nonzeros into the
 * float64 output accumulator.
 *
 * The loop np.add.at(d, r, v[:, None].astype(float64) * b[c]) performs:
 * for each nonzero i in order and each j < k,
 *
 *     d[r[i], j] += (double)v[i] * b[c[i], j]
 *
 * one rounded multiply, then one rounded add, in nonzero order, so a
 * row hit by several nonzeros accumulates them in the same order and
 * the bits come out the same.  Built with -ffp-contract=off: a fused
 * multiply-add would skip the product's rounding.
 *
 * Every index is checked before anything is written; an out-of-range
 * chunk returns -1 and leaves d untouched.
 */

#include <stdint.h>

int64_t repro_spmm_merge(
    double *d, int64_t rows,
    const double *b, int64_t b_rows, int64_t k,
    const int64_t *r, const int64_t *c, const float *v, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (r[i] < 0 || r[i] >= rows || c[i] < 0 || c[i] >= b_rows)
            return -1;
    for (int64_t i = 0; i < n; i++) {
        double *dst = d + r[i] * k;
        const double *src = b + c[i] * k;
        double x = (double)v[i];
        for (int64_t j = 0; j < k; j++)
            dst[j] += x * src[j];
    }
    return 0;
}
