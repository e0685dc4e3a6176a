/* One round-robin Jacobi sweep over a stack of symmetric matrices.
 *
 * The compiled form of spectra._numpy_sweep: the same IEEE operations in the
 * same order, so both give the same bits. Build it without fast-math and
 * without contraction (-fno-fast-math -ffp-contract=off), since a fused
 * multiply-add would round once where numpy rounds twice.
 *
 * Only the order in which independent entries are visited differs from the
 * numpy round. A round's column rotation changes each entry of columns P_i
 * and Q_i from the two entries of its own row in those columns, and no two
 * pairs share a column; its row rotation then changes rows P_i and Q_i from
 * the column-rotated rows P_i and Q_i alone. So the columns may be walked in
 * any order of pairs and rows, and every entry still goes through the same
 * operations on the same operands.
 *
 * The columns are walked as runs: maximal stretches of consecutive pairs of
 * pq in which P steps by +1 or -1 and Q steps the opposite way; a pair that
 * starts no such stretch is a run of one. Pair i of round r of the
 * round-robin schedule is {(r + i) mod M, (r - i) mod M}, so a round splits
 * into a few such runs, and in each row a run reads and writes one ascending
 * and one descending unit-stride stream, which the compiler vectorizes. The
 * runs are read from pq itself, so any pq of disjoint pairs works.
 *
 * jacobi_sweep is the one export. On x86-64 it picks its body itself, on
 * each call: the same sweep compiled for AVX2 where the CPU it runs on has
 * AVX2, the portable body otherwise, so a library built on one host stays
 * safe to load on another.
 */
#include <math.h>
#include <stddef.h>
#include <stdlib.h>

/* Every helper is inlined into each body of jacobi_sweep, so that it is
 * compiled for the instruction set of the body it serves. */
#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* u[s * l] and v[-s * l] of one row, for l < len, rotated by c[l] and t[l].
 * s is +1 or -1, and each call passes a constant, so that each inlined copy
 * streams both sides. */
INLINE void rotate_run(double *restrict u, double *restrict v, ptrdiff_t s,
                       const double *restrict c, const double *restrict t,
                       ptrdiff_t len)
{
    for (ptrdiff_t l = 0; l < len; l++) {
        double xp = u[s * l], xq = v[-s * l];
        u[s * l] = xp * c[l] + xq * -t[l];
        v[-s * l] = xq * c[l] + xp * t[l];
    }
}

/* Splits a round's k pairs into runs seg[j] .. seg[j + 1] - 1, j < the
 * count returned, with dir[j] the step of P, +1 or -1 (+1 for a run of one).
 */
INLINE ptrdiff_t find_runs(const ptrdiff_t *P, const ptrdiff_t *Q,
                           ptrdiff_t k, ptrdiff_t *seg, ptrdiff_t *dir)
{
    ptrdiff_t nseg = 0;
    for (ptrdiff_t i = 0; i < k; nseg++) {
        seg[nseg] = i++;
        ptrdiff_t dp = i < k && P[i] - P[i - 1] == -1 ? -1 : 1;
        while (i < k && P[i] - P[i - 1] == dp && Q[i] - Q[i - 1] == -dp)
            i++;
        dir[nseg] = dp;
    }
    seg[nseg] = k;
    return nseg;
}

/* Columns P and Q of every row of the n x n matrix m, run by run. */
INLINE void rotate_columns(double *m, ptrdiff_t n, const ptrdiff_t *P,
                           const ptrdiff_t *Q, const ptrdiff_t *seg,
                           const ptrdiff_t *dir, ptrdiff_t nseg,
                           const double *c, const double *t)
{
    for (ptrdiff_t j = 0; j < nseg; j++) {
        ptrdiff_t i = seg[j], len = seg[j + 1] - i;
        const double *ci = c + i, *ti = t + i;
        for (double *x = m; x < m + n * n; x += n) {
            double *u = x + P[i], *v = x + Q[i];
            if (dir[j] > 0)
                rotate_run(u, v, 1, ci, ti, len);
            else
                rotate_run(u, v, -1, ci, ti, len);
        }
    }
}

/* Rows P and Q of one pair, whole. */
INLINE void rotate_rows(double *restrict xp, double *restrict xq,
                        ptrdiff_t n, double c, double t)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        double u = xp[j], v = xq[j];
        xp[j] = u * c + v * -t;
        xq[j] = v * c + u * t;
    }
}

/* The work arrays, c, t and the runs, are sized from k and allocated
 * here, which costs less per call than two numpy arrays passed in. */
INLINE int sweep(double *a, ptrdiff_t b, ptrdiff_t n, const ptrdiff_t *pq,
                 ptrdiff_t rounds, ptrdiff_t k)
{
    double *c = malloc(2 * k * sizeof(double)
                       + (2 * k + 2) * sizeof(ptrdiff_t));
    if (c == NULL)
        return -1;
    double *t = c + k;
    ptrdiff_t *seg = (ptrdiff_t *)(t + k), *dir = seg + k + 1;
    for (ptrdiff_t r = 0; r < rounds; r++) {
        const ptrdiff_t *P = pq + 2 * k * r, *Q = P + k;
        ptrdiff_t nseg = find_runs(P, Q, k, seg, dir);
        for (double *m = a; m < a + b * n * n; m += n * n) {
            for (ptrdiff_t i = 0; i < k; i++) {
                double app = m[P[i] * n + P[i]], aqq = m[Q[i] * n + Q[i]];
                double apq = m[P[i] * n + Q[i]];
                double half = (aqq - app) * 0.5;
                double den = hypot(half, apq) + fabs(half);
                /* den == 0 only when apq == 0 too: t = +-0, the identity.
                 * A comparison, not fmax, so that a NaN propagates. */
                den = den < 5e-324 ? 5e-324 : den;
                double tt = apq / copysign(den, half);
                c[i] = 1.0 / hypot(1.0, tt);
                t[i] = tt * c[i];
            }
            rotate_columns(m, n, P, Q, seg, dir, nseg, c, t);
            for (ptrdiff_t i = 0; i < k; i++) {
                rotate_rows(m + P[i] * n, m + Q[i] * n, n, c[i], t[i]);
                m[P[i] * n + Q[i]] = m[Q[i] * n + P[i]] = 0.0;
            }
        }
    }
    free(c);
    return 0;
}

/* a is b contiguous n x n matrices, row-major. Row r of pq (rounds x 2k)
 * holds round r's k disjoint pairs, all P then all Q. Returns 0, or -1 when
 * the work arrays cannot be allocated, before any entry is changed. */
#if defined(__x86_64__) && defined(__GNUC__)
/* sweep built for AVX2. Wider vectors do the same IEEE operations on each
 * entry, and the avx2 target enables no fused multiply-add. */
__attribute__((target("avx2")))
static int sweep_avx2(double *a, ptrdiff_t b, ptrdiff_t n,
                      const ptrdiff_t *pq, ptrdiff_t rounds, ptrdiff_t k)
{
    return sweep(a, b, n, pq, rounds, k);
}

int jacobi_sweep(double *a, ptrdiff_t b, ptrdiff_t n, const ptrdiff_t *pq,
                 ptrdiff_t rounds, ptrdiff_t k)
{
    if (__builtin_cpu_supports("avx2"))
        return sweep_avx2(a, b, n, pq, rounds, k);
    return sweep(a, b, n, pq, rounds, k);
}
#else
int jacobi_sweep(double *a, ptrdiff_t b, ptrdiff_t n, const ptrdiff_t *pq,
                 ptrdiff_t rounds, ptrdiff_t k)
{
    return sweep(a, b, n, pq, rounds, k);
}
#endif
