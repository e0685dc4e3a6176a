/* The Jacobi eigensolver of lapbounds.spectra, whole, and the G(n, p) coin
 * block of lapbounds.families.
 *
 * jacobi_solve solves symmetric matrices one after another: it copies each,
 * or fills it from packed neighbour-mask rows, into a 64-byte aligned work
 * matrix of its own, sweeps it in the round-robin schedule until it
 * converges, and writes its final diagonal. It is the only solver: the
 * tests check it against the same solve written in numpy (numpy_solve in
 * tests/jacobi_oracle.py), and both do the same IEEE operations in the same
 * order, so they give the same bits and stop each matrix after the same
 * sweep. Build it without fast-math and without contraction
 * (-fno-fast-math -ffp-contract=off), since a fused multiply-add would
 * round once where numpy rounds twice, and a reordered sum would round
 * differently; and with -fno-math-errno, so that sqrt compiles to its
 * instruction alone and the hypot loop vectorizes (nothing here reads
 * errno).
 *
 * Only the order in which independent pairs and entries are visited differs
 * from the oracle's numpy round, and rotate() holds the operations of every
 * entry. A round's coefficients c_i and t_i each depend on pair i's three
 * entries alone. Its column rotation changes each entry of columns P_i and
 * Q_i from the two entries of its own row in those columns, and no two pairs
 * share a column; its row rotation then changes rows P_i and Q_i from the
 * column-rotated rows P_i and Q_i alone. So the pairs and rows may be taken
 * in any order and grouped in any way, and every pair and entry still goes
 * through the same operations on the same operands.
 *
 * Each round then takes three steps. The coefficients are computed in
 * phases, each over all k pairs and each vectorized: gather half and apq;
 * every first hypot; den and tt; every second hypot; c and t. Then the
 * columns are walked as runs: maximal stretches of consecutive pairs of
 * pq in which P steps by +1 and Q by -1; a pair that starts no such stretch
 * is a run of one. Round r of the round-robin schedule, M = n rounded up to
 * even, pairs r with M - 1 and every a < b <= M - 2 with a + b = 2r mod
 * (M - 1); round_robin lists the latter sum by sum, a rising, so a round
 * splits into at most three runs, and in each row a run reads and writes
 * one ascending and one descending unit-stride stream, which the compiler
 * vectorizes. Each run walks four rows at a time, so that its c and t are
 * loaded, and its loop set up, once per four rows, and the last n mod 4
 * rows one at a time. Last, the rows of each pair are rotated whole.
 *
 * The runs are read from pq itself, so any pq of disjoint pairs works,
 * each pair of a stretch in which P steps by -1 as a run of one; the tests
 * sweep such schedules through a program that includes this file. On
 * x86-64 jacobi_sweep picks the body of each sweep itself: the same sweep
 * compiled for AVX2 where the CPU it runs on has AVX2, the portable body
 * otherwise, so a library built on one host stays safe to load on another.
 * The library exports jacobi_solve and gnp_rows alone.
 *
 * The hypot phases do not call libm for each pair: a vector hypot of
 * libmvec need not round as libm's does. They inline the algorithm of
 * glibc's hypot (2.35 and later, without FMA), with its bits, on every pair
 * in its common range; a pair outside it (an argument above 2^511, both
 * below 2^-459 and neither negligible next to the other, or a non-finite
 * one) goes to libm's hypot, one at a time, in a pass that runs only when
 * there is one.
 * On a libm whose hypot is not glibc's algorithm, the common range rounds
 * as glibc does, and the tests that compare it with np.hypot say where.
 * The work matrix is 64-byte aligned, so that a sweep's speed does not
 * depend on where the caller's buffer sits: an n = 64 sweep on a matrix at
 * 16 mod 32 bytes took about 15% longer than on one at 0 mod 32. It lies in
 * the one block that a solve allocates, padded to whole 64-byte lines, and
 * the sweep's work arrays (c, t, h and the runs) and the schedule follow it
 * there, c at the start of a line; so a sweep allocates nothing and cannot
 * fail.
 *
 * gnp_rows draws the coins of one G(n, p) attempt from a splitmix64 state,
 * with the bits of rng.SplitMix64.uniform() < p.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Every helper is inlined into each body of the sweep, so that it is
 * compiled for the instruction set of the body it serves. */
#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* The entries *u in column P and *v in column Q of one row, or in row P
 * and row Q of one column, rotated by c and t: the operations of every
 * entry of a sweep, whichever loop visits it. */
INLINE void rotate(double *u, double *v, double c, double t)
{
    double xp = *u, xq = *v;
    *u = xp * c + xq * -t;
    *v = xq * c + xp * t;
}

/* u[l] and v[-l] of one row, for l < len, rotated by c[l] and t[l]. */
INLINE void rotate_run(double *restrict u, double *restrict v,
                       const double *restrict c, const double *restrict t,
                       ptrdiff_t len)
{
    for (ptrdiff_t l = 0; l < len; l++)
        rotate(u + l, v - l, c[l], t[l]);
}

/* rotate_run on four rows at once, u0 and v0 in the first and ui and vi
 * in the i-th row after it, so that c[l] and t[l] are loaded, and the loop
 * set up, once for four rows. */
INLINE void rotate_run4(double *restrict u0, double *restrict v0,
                        double *restrict u1, double *restrict v1,
                        double *restrict u2, double *restrict v2,
                        double *restrict u3, double *restrict v3,
                        const double *restrict c, const double *restrict t,
                        ptrdiff_t len)
{
    for (ptrdiff_t l = 0; l < len; l++) {
        rotate(u0 + l, v0 - l, c[l], t[l]);
        rotate(u1 + l, v1 - l, c[l], t[l]);
        rotate(u2 + l, v2 - l, c[l], t[l]);
        rotate(u3 + l, v3 - l, c[l], t[l]);
    }
}

/* Splits a round's k pairs into runs seg[j] .. seg[j + 1] - 1, j < the
 * count returned. */
INLINE ptrdiff_t find_runs(const ptrdiff_t *P, const ptrdiff_t *Q,
                           ptrdiff_t k, ptrdiff_t *seg)
{
    ptrdiff_t nseg = 0;
    for (ptrdiff_t i = 0; i < k; nseg++) {
        seg[nseg] = i++;
        while (i < k && P[i] - P[i - 1] == 1 && Q[i] - Q[i - 1] == -1)
            i++;
    }
    seg[nseg] = k;
    return nseg;
}

/* Columns P and Q of every row of the n x n matrix m, run by run. */
INLINE void rotate_columns(double *m, ptrdiff_t n, const ptrdiff_t *P,
                           const ptrdiff_t *Q, const ptrdiff_t *seg,
                           ptrdiff_t nseg, const double *c, const double *t)
{
    for (ptrdiff_t j = 0; j < nseg; j++) {
        ptrdiff_t i = seg[j], len = seg[j + 1] - i;
        const double *ci = c + i, *ti = t + i;
        double *u = m + P[i], *v = m + Q[i];
        ptrdiff_t row = 0;
        for (; row + 4 <= n; row += 4, u += 4 * n, v += 4 * n)
            rotate_run4(u, v, u + n, v + n, u + 2 * n, v + 2 * n,
                        u + 3 * n, v + 3 * n, ci, ti, len);
        for (; row < n; row++, u += n, v += n)
            rotate_run(u, v, ci, ti, len);
    }
}

/* Rows P and Q of one pair, whole. */
INLINE void rotate_rows(double *restrict xp, double *restrict xq,
                        ptrdiff_t n, double c, double t)
{
    for (ptrdiff_t j = 0; j < n; j++)
        rotate(xp + j, xq + j, c, t);
}

/* cond ? x : y, taken by a mask on the bits, so that the compiler sees no
 * branch. Given ?: on doubles, it may move each side's arithmetic into a
 * branch of its own, and then keeps the loop scalar: computing both sides
 * in every lane could raise floating-point exceptions that the branches
 * do not. */
INLINE double pick(int cond, double x, double y)
{
    int64_t mask = -(int64_t)cond, bx, by;
    memcpy(&bx, &x, sizeof bx);
    memcpy(&by, &y, sizeof by);
    bx = (bx & mask) | (by & ~mask);
    memcpy(&x, &bx, sizeof x);
    return x;
}

/* The larger and the smaller of |x| and |y|, as glibc's hypot orders them. */
INLINE void order(double x, double y, double *hi, double *lo)
{
    double ax = fabs(x), ay = fabs(y);
    *hi = pick(ax < ay, ay, ax);
    *lo = pick(ax < ay, ax, ay);
}

/* Whether glibc's hypot gives hi + lo or its unscaled kernel for hi and lo:
 * hi is at most 2^511, and lo is at least 2^-459 or at most hi * 2^-54.
 * NaN fails every comparison, so it is outside. */
INLINE int common(double hi, double lo)
{
    return (hi <= 0x1p511) & ((lo >= 0x1p-459) | (hi >= lo * 0x1p54));
}

/* h[i] = hypot(x[i * sx], y[i]) for i < k, sx 0 or 1. In the common range
 * this is the algorithm of glibc's hypot (2.35 and later, without FMA):
 * Borges, "An Improved Algorithm for hypot(a, b)", ACM TOMS 47 (2021), r =
 * sqrt(hi^2 + lo^2) less one correction, or hi + lo when lo is negligible,
 * each branch computed and one picked, so that the loop vectorizes and
 * gives glibc's bits. A pair outside that range goes to libm's hypot, one
 * at a time, in a pass that runs only when there is such a pair. */
INLINE void hypots(double *restrict h, const double *restrict x, ptrdiff_t sx,
                   const double *restrict y, ptrdiff_t k)
{
    int outside = 0;
    for (ptrdiff_t i = 0; i < k; i++) {
        double hi, lo;
        order(x[i * sx], y[i], &hi, &lo);
        double r = sqrt(hi * hi + lo * lo);
        int near = r <= 2.0 * lo;
        double dn = r - lo, df = r - hi;
        double t1 = pick(near, hi * (2.0 * dn - hi),
                         2.0 * df * (hi - 2.0 * lo));
        double t2 = pick(near, (dn - 2.0 * (hi - lo)) * dn,
                         (4.0 * df - lo) * lo + df * df);
        h[i] = pick(hi >= lo * 0x1p54, hi + lo, r - (t1 + t2) / (2.0 * r));
        outside |= !common(hi, lo);
    }
    if (outside)
        for (ptrdiff_t i = 0; i < k; i++) {
            double hi, lo;
            order(x[i * sx], y[i], &hi, &lo);
            if (!common(hi, lo))
                h[i] = hypot(x[i * sx], y[i]);
        }
}

/* The rotation coefficients c[i] and t[i] of the k pairs of one round of
 * the n x n matrix m, in phases over all pairs, each pair through the same
 * operations as in the oracle's numpy_sweep. Until the last phase, c holds
 * half and t holds apq, then tt; h is a work array of k doubles. */
INLINE void coefficients(const double *m, ptrdiff_t n, const ptrdiff_t *P,
                         const ptrdiff_t *Q, ptrdiff_t k, double *restrict h,
                         double *restrict c, double *restrict t)
{
    static const double one = 1.0;
    for (ptrdiff_t i = 0; i < k; i++) {
        c[i] = (m[Q[i] * n + Q[i]] - m[P[i] * n + P[i]]) * 0.5;
        t[i] = m[P[i] * n + Q[i]];
    }
    hypots(h, c, 1, t, k);
    for (ptrdiff_t i = 0; i < k; i++) {
        double den = h[i] + fabs(c[i]);
        /* den == 0 only when apq == 0 too: t = +-0, the identity. A
         * comparison, not fmax, so that a NaN propagates. */
        den = den < 5e-324 ? 5e-324 : den;
        t[i] = t[i] / copysign(den, c[i]);
    }
    hypots(h, &one, 0, t, k);
    for (ptrdiff_t i = 0; i < k; i++) {
        c[i] = 1.0 / h[i];
        t[i] = t[i] * c[i];
    }
}

/* One sweep of the n x n matrix m, row-major. Row r of pq (rounds x 2k)
 * holds round r's k disjoint pairs, all P then all Q. work holds c, t and h,
 * k doubles each, then the runs, k + 1 indices: a part of jacobi_solve's
 * block. */
INLINE void sweep(double *m, ptrdiff_t n, const ptrdiff_t *pq,
                  ptrdiff_t rounds, ptrdiff_t k, double *work)
{
    double *c = work, *t = c + k, *h = t + k;
    ptrdiff_t *seg = (ptrdiff_t *)(h + k);
    for (ptrdiff_t r = 0; r < rounds; r++) {
        const ptrdiff_t *P = pq + 2 * k * r, *Q = P + k;
        ptrdiff_t nseg = find_runs(P, Q, k, seg);
        coefficients(m, n, P, Q, k, h, c, t);
        rotate_columns(m, n, P, Q, seg, nseg, c, t);
        for (ptrdiff_t i = 0; i < k; i++) {
            rotate_rows(m + P[i] * n, m + Q[i] * n, n, c[i], t[i]);
            m[P[i] * n + Q[i]] = m[Q[i] * n + P[i]] = 0.0;
        }
    }
}

/* sweep, by the body that the CPU it runs on can run. */
#if defined(__x86_64__) && defined(__GNUC__)
/* sweep built for AVX2. Wider vectors do the same IEEE operations on each
 * entry, and the avx2 target enables no fused multiply-add. */
__attribute__((target("avx2")))
static void sweep_avx2(double *m, ptrdiff_t n, const ptrdiff_t *pq,
                       ptrdiff_t rounds, ptrdiff_t k, double *work)
{
    sweep(m, n, pq, rounds, k, work);
}

static void jacobi_sweep(double *m, ptrdiff_t n, const ptrdiff_t *pq,
                         ptrdiff_t rounds, ptrdiff_t k, double *work)
{
    if (__builtin_cpu_supports("avx2"))
        sweep_avx2(m, n, pq, rounds, k, work);
    else
        sweep(m, n, pq, rounds, k, work);
}
#else
static void jacobi_sweep(double *m, ptrdiff_t n, const ptrdiff_t *pq,
                         ptrdiff_t rounds, ptrdiff_t k, double *work)
{
    sweep(m, n, pq, rounds, k, work);
}
#endif

/* Row r of pq, r < n - 1 + n % 2, gets round r's k = n / 2 pairs of the
 * round-robin schedule above, all P then all Q: for s = 2r mod (M - 1),
 * then s + M - 1, each {a, s - a} with a < s - a <= M - 2, a rising, one
 * run per sum; then {r, M - 1}, unless n is odd and M - 1 = n is the bye.
 * Each round holds the pairs of the oracle's round_robin, in another
 * order. */
static void round_robin(ptrdiff_t n, ptrdiff_t *pq)
{
    ptrdiff_t m = n + n % 2, k = n / 2;
    for (ptrdiff_t r = 0; r < m - 1; r++) {
        ptrdiff_t *P = pq + 2 * k * r, *Q = P + k, i = 0;
        for (ptrdiff_t s = 2 * r % (m - 1); s < 2 * (m - 1); s += m - 1)
            for (ptrdiff_t a = s > m - 2 ? s - (m - 2) : 0; 2 * a < s; a++) {
                P[i] = a;
                Q[i++] = s - a;
            }
        if (i < k) {
            P[i] = r;
            Q[i] = m - 1;
        }
    }
}

/* The n x n Laplacian of n neighbour masks of (n + 7) / 8 little-endian
 * bytes each: -1 where bit j is set and 0 elsewhere, then the mask's
 * popcount on the diagonal, as spectra.laplacian builds it. Returns the
 * byte after the last mask. */
static const unsigned char *fill_laplacian(double *a, ptrdiff_t n,
                                           const unsigned char *rows)
{
    ptrdiff_t width = (n + 7) / 8;
    for (ptrdiff_t i = 0; i < n; i++, a += n, rows += width) {
        int degree = 0;
        for (ptrdiff_t j = 0; j < n; j++)
            a[j] = ((rows[j >> 3] >> (j & 7)) & 1) ? -1.0 : 0.0;
        for (ptrdiff_t w = 0; w < width; w++)
            for (unsigned bits = rows[w]; bits; bits &= bits - 1)
                degree++;
        a[i] = degree;
    }
    return rows;
}

/* The squares of the n x n matrix x summed left to right, row by row, its
 * diagonal left out when off is nonzero. */
static double sum_squares(const double *x, ptrdiff_t n, int off)
{
    double s = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            if (!(off && i == j))
                s += x[i * n + j] * x[i * n + j];
    return s;
}

/* Solves b symmetric matrices one after another: matrix j has order ns[j]
 * and follows matrix j - 1 in a, row-major, or when rows is not NULL is the
 * Laplacian of the ns[j] neighbour masks that follow matrix j - 1's there.
 * Each is loaded into one 64-byte aligned work matrix of the largest order:
 * a is read only, and may be NULL with rows. Its target is rel_tol times
 * the square root of its sum_squares. It is swept until the square root of
 * its off-diagonal sum_squares is at most its target; then its diagonal
 * goes to values, after those of the matrices before it, and the number of
 * sweeps it took to sweeps[j]. Returns the number of matrices still above
 * their target after max_sweeps sweeps, each with sweeps[j] = -1; before
 * matrix j is swept, -2 when it has an entry that is not finite and -3 when
 * its target overflows; or -1, before any matrix is read, when there is no
 * memory for the block. */
ptrdiff_t jacobi_solve(const double *a, ptrdiff_t b, const int *ns,
                       const unsigned char *rows, ptrdiff_t max_sweeps,
                       double rel_tol, double *values, int *sweeps)
{
    ptrdiff_t top = 0, scheduled = -1, failed = 0;
    if (b == 0)
        return 0;
    for (ptrdiff_t j = 0; j < b; j++)
        top = ns[j] > top ? ns[j] : top;
    /* One block of whole 64-byte lines, at least one, allocated once: the
     * work matrix, rounded up to whole lines; the sweep's work, c, t and h
     * then the runs, sized for the largest k; and the schedule, at most
     * top * top indices. */
    ptrdiff_t padded = (top * top + 7) / 8 * 8, most = top / 2;
    size_t size = (padded + 3 * most) * sizeof(double)
                  + (most + 1 + top * top) * sizeof(ptrdiff_t);
    double *m = aligned_alloc(64, (size / 64 + 1) * 64);
    if (m == NULL)
        return -1;
    ptrdiff_t *pq = (ptrdiff_t *)(m + padded + 3 * most) + most + 1;
    for (ptrdiff_t j = 0; j < b; j++) {
        ptrdiff_t n = ns[j], nn = n * n, k = n / 2, rounds = n - 1 + n % 2;
        if (rows != NULL) {
            rows = fill_laplacian(m, n, rows);
        } else {
            memcpy(m, a, nn * sizeof(double));
            a += nn;
        }
        /* a non-finite entry makes the target non-finite too */
        double target = rel_tol * sqrt(sum_squares(m, n, 0));
        if (!isfinite(target)) {
            failed = -3;
            for (ptrdiff_t i = 0; i < nn; i++)
                if (!isfinite(m[i]))
                    failed = -2;
            break;
        }
        int converged, s;
        for (s = 0; !(converged = sqrt(sum_squares(m, n, 1)) <= target)
                    && s < max_sweeps; s++) {
            if (scheduled != n) {
                round_robin(n, pq);
                scheduled = n;
            }
            jacobi_sweep(m, n, pq, rounds, k, m + padded);
        }
        for (ptrdiff_t i = 0; i < n; i++)
            values[i] = m[i * n + i];
        values += n;
        sweeps[j] = converged ? s : -1;
        failed += !converged;
    }
    free(m);
    return failed;
}

#define GOLDEN 0x9E3779B97F4A7C15u
#define MUL1 0xBF58476D1CE4E5B9u
#define MUL2 0x94D049BB133111EBu

/* The coins of one G(n, p) attempt: pair i in u-major order of the pairs
 * u < v takes output i of the splitmix64 stream at state, mix(state +
 * (i + 1) * golden), and is an edge when its 53 high bits times 2^-53 are
 * below p. Writes the n symmetric neighbour masks to rows, (n + 7) / 8
 * little-endian bytes each. The stream and constants of rng.py. */
void gnp_rows(uint64_t state, ptrdiff_t n, double p, unsigned char *rows)
{
    ptrdiff_t width = (n + 7) / 8;
    memset(rows, 0, n * width);
    for (ptrdiff_t u = 0; u < n; u++)
        for (ptrdiff_t v = u + 1; v < n; v++) {
            uint64_t z = state += GOLDEN;
            z = (z ^ (z >> 30)) * MUL1;
            z = (z ^ (z >> 27)) * MUL2;
            z ^= z >> 31;
            if ((double)(z >> 11) * 0x1p-53 < p) {
                rows[u * width + (v >> 3)] |= 1u << (v & 7);
                rows[v * width + (u >> 3)] |= 1u << (u & 7);
            }
        }
}
