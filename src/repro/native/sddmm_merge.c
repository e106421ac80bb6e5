/*
 * SDDMM merge: one dot product per nonzero, scaled by the nonzero's
 * value, written to each chunk's contiguous output slots.
 *
 * The chunks are a table of segments in dispatch order, row s being
 * (input offset, count, output start): the nonzeros [offset, offset +
 * count) write the slots [start, start + count).  For
 * each nonzero i of a segment, m its index there:
 *
 *     s = 0.0;  for j < k:  s += b[r[i], j] * c[c[i], j]
 *     out[start + m] = (double)v[i] * s
 *
 * summed left to right over j: one rounded multiply, then one rounded
 * add per term.  The twin (repro.kernels.reference._dots) performs the
 * same operations as a NumPy loop over the k columns, so the bits come
 * out the same on every host.  Built with -ffp-contract=off: a fused
 * multiply-add would skip the product's rounding.
 *
 * Every segment, its output range and every index are checked before
 * anything is written; a refused table returns -1 and leaves out
 * untouched.
 */

#include <stdint.h>

static void dots(double *out, const double *b, const double *c, int64_t k,
                 const int64_t *r, const int64_t *ci, const float *v,
                 int64_t n)
{
    int64_t i = 0;
    /* Four nonzeros at a time: four independent sums, each still left
     * to right over j, so the adds' latencies overlap. */
    for (; i + 4 <= n; i += 4) {
        const double *x0 = b + r[i] * k, *y0 = c + ci[i] * k;
        const double *x1 = b + r[i + 1] * k, *y1 = c + ci[i + 1] * k;
        const double *x2 = b + r[i + 2] * k, *y2 = c + ci[i + 2] * k;
        const double *x3 = b + r[i + 3] * k, *y3 = c + ci[i + 3] * k;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int64_t j = 0; j < k; j++) {
            s0 += x0[j] * y0[j];
            s1 += x1[j] * y1[j];
            s2 += x2[j] * y2[j];
            s3 += x3[j] * y3[j];
        }
        out[i] = (double)v[i] * s0;
        out[i + 1] = (double)v[i + 1] * s1;
        out[i + 2] = (double)v[i + 2] * s2;
        out[i + 3] = (double)v[i + 3] * s3;
    }
    for (; i < n; i++) {
        const double *x = b + r[i] * k, *y = c + ci[i] * k;
        double s = 0.0;
        for (int64_t j = 0; j < k; j++)
            s += x[j] * y[j];
        out[i] = (double)v[i] * s;
    }
}

int64_t repro_sddmm_merge(
    double *out, int64_t out_len,
    const double *b, int64_t b_rows, const double *c, int64_t c_rows,
    int64_t k,
    const int64_t *r, const int64_t *ci, const float *v, int64_t n,
    const int64_t *segs, int64_t n_segs)
{
    for (int64_t s = 0; s < n_segs; s++) {
        int64_t off = segs[3 * s], cnt = segs[3 * s + 1];
        int64_t at = segs[3 * s + 2];
        if (off < 0 || cnt < 0 || off > n - cnt || at < 0
            || at > out_len - cnt)
            return -1;
        for (int64_t i = off; i < off + cnt; i++)
            if (r[i] < 0 || r[i] >= b_rows || ci[i] < 0 || ci[i] >= c_rows)
                return -1;
    }
    for (int64_t s = 0; s < n_segs; s++) {
        int64_t off = segs[3 * s];
        dots(out + segs[3 * s + 2], b, c, k, r + off, ci + off,
             v + off, segs[3 * s + 1]);
    }
    return 0;
}
