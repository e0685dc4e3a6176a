/* One round-robin Jacobi sweep over a stack of symmetric matrices.
 *
 * The compiled form of spectra._numpy_sweep: the same IEEE operations in the
 * same order, so both give the same bits. Build it without fast-math and
 * without contraction (-fno-fast-math -ffp-contract=off), since a fused
 * multiply-add would round once where numpy rounds twice.
 */
#include <math.h>
#include <stddef.h>

/* a is b contiguous n x n matrices, row-major. Row r of pq (rounds x 2k)
 * holds round r's k pairs, all P then all Q. scratch holds 2k doubles. */
void jacobi_sweep(double *a, ptrdiff_t b, ptrdiff_t n, const ptrdiff_t *pq,
                  ptrdiff_t rounds, ptrdiff_t k, double *scratch)
{
    double *c = scratch, *t = scratch + k;
    for (ptrdiff_t m = 0; m < b; m++, a += n * n) {
        for (ptrdiff_t r = 0; r < rounds; r++) {
            const ptrdiff_t *P = pq + 2 * k * r, *Q = P + k;
            for (ptrdiff_t i = 0; i < k; i++) {
                double app = a[P[i] * n + P[i]], aqq = a[Q[i] * n + Q[i]];
                double apq = a[P[i] * n + Q[i]];
                double half = (aqq - app) * 0.5;
                double den = hypot(half, apq) + fabs(half);
                /* den == 0 only when apq == 0 too: t = +-0, the identity.
                 * A comparison, not fmax, so that a NaN propagates. */
                den = den < 5e-324 ? 5e-324 : den;
                double tt = apq / copysign(den, half);
                c[i] = 1.0 / hypot(1.0, tt);
                t[i] = tt * c[i];
            }
            for (ptrdiff_t row = 0; row < n; row++) {  /* columns P and Q */
                double *x = a + row * n;
                for (ptrdiff_t i = 0; i < k; i++) {
                    double xp = x[P[i]], xq = x[Q[i]];
                    x[P[i]] = xp * c[i] + xq * -t[i];
                    x[Q[i]] = xq * c[i] + xp * t[i];
                }
            }
            for (ptrdiff_t i = 0; i < k; i++) {  /* then rows P and Q */
                double *xp = a + P[i] * n, *xq = a + Q[i] * n;
                for (ptrdiff_t j = 0; j < n; j++) {
                    double u = xp[j], v = xq[j];
                    xp[j] = u * c[i] + v * -t[i];
                    xq[j] = v * c[i] + u * t[i];
                }
            }
            for (ptrdiff_t i = 0; i < k; i++)
                a[P[i] * n + Q[i]] = a[Q[i] * n + P[i]] = 0.0;
        }
    }
}
