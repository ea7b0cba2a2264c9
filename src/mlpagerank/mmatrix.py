"""Triplet representations of M-matrices, GTH elimination, and partial inverses.

An M-matrix M never enters these routines directly.  It is passed as a
*triplet*: the nonnegative off-diagonal magnitudes N (N_ij = -M_ij, zero
diagonal) together with a nonnegative sum vector, either row sums (M 1 = sums)
or column sums (1^T M = sums^T).  The implied diagonal is reconstructed from
nonnegative additions only, which is what makes the factorization accurate
componentwise regardless of how close M is to singularity.

The GTH kernel is written once and runs unchanged on float64 ndarrays and
on precision.DD pair arrays.  Its one elimination pass (_eliminate) works in
place on an augmented array W of n + 1 rows, the augmented form of
Grassmann, Taksar and Heyman (Oper. Res. 33, 1985): the off-diagonal
magnitudes of a COL triplet fill the leading n x n block, the column sums
are row n, and right-hand sides are further columns (_augmented builds it).
A pivot is the sum of the column below it, the sums entry last, and one
rank-1 update per pivot, rounded as (a / d) b, updates the entries, the sums
and the right-hand sides alike.  A ROW triplet is the COL triplet of its
transpose.  Only two steps differ by arithmetic.  A pair pivot is the
exactly rounded sum of its column (precision.DD.sum).  The leaf's
back-substitution is a sweep by columns in both: in binary64 it divides by
the pivots, in LAPACK's form (_unit_upper_solve), and in pairs it multiplies
by their reciprocals (_back_substitute).  Every routine runs on that one
pass, and none forms L or U:

- gth_col_solve, the solve of the iterations, eliminates the right-hand
  sides along with the matrix and back-substitutes.  Above GTH_BLOCK
  unknowns it splits the system in half and recurses on the Schur
  complement, whose off-diagonal part, column sums and right-hand sides are
  again sums of products of nonnegative numbers.
- gth_partial_inverse reads the GTH multipliers of its null profile off one
  eliminated W (_null_profile), and solves against the identity in one
  unblocked pass, which also gives the pivots of its determinant ratio.

Every routine takes the triplet as plain arrays and validates none of it:
the solvers' block sweeps call gth_col_solve on their own binary64 blocks,
and the pair-precision reference, compute_y and omega call the kernel on
their own data.

The pass runs compiled in both arithmetics.  _GTH_C, a C transcription
with the same bits, is built on first import by the system C compiler ("cc"
on PATH) and loaded through ctypes.  The library is cached per user in
$XDG_CACHE_HOME/mlpagerank (~/.cache/mlpagerank by default), named by a
hash of the source, the flags and the machine; no build step is asked of
the user.  gth_eliminate is the binary64 pass and dd_gth_solve the pair
pass, each, for a leaf solve, with its back-substitution in the same call;
no LAPACK routine takes part.  On x86-64 with AVX-512F the binary64 pass
runs through a second entry point, the same C body with wider lanes, chosen
once at import (_leaf).  dd_gth_solve's pivot is the exactly rounded sum
that DD.sum takes with math.fsum: the column's hi parts, then its lo parts,
go into Shewchuk's partials as fsum adds them, the partials are rounded as
fsum rounds them, and lo is the same partials with -hi added, rounded
again.  The same library folds pairs for
precision.dd_sum and its segment sums (dd_fold and dd_fold_runs), on terms
numpy has formed; forms precision's pair products, the renormalized pair
slab and the products that fold with a vector, dense and sparse
(dd_slab_build, dd_contract and dd_contract_runs, bound as _pair_products,
each with an AVX-512F entry chosen at import as _leaf chooses); holds the
product of a graph's PageRank tensor (graph_product, bound as
_graph_product); and on x86-64 with AVX-512F holds tensor's half-slab
product (half_slab_build and half_slab_contract, bound as _half_slab).  The
Python code, and for the products precision's and the factored product's
numpy expressions and numpy's einsum, stays the specification.  It
runs where there is no compiler, and in pairs from the first pivot column
that has a part that is not finite or a sum that overflows, so that
math.fsum's NaN, inf, ValueError and OverflowError stand.  Compiled, a NaN
or inf passes without numpy's RuntimeWarnings.  The callers keep them out:
solvers.Problem rejects an a or v that is not finite, and compute_y and
omega reject an R_m that is not (analysis._rm_col_triplet).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import types
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

# gth_col_solve splits a system with more unknowns than this in half.  The
# split trades rank-1 updates in the compiled leaf for matrix products.  Its
# time in us on a 70%-dense triplet with one right-hand side, one BLAS
# thread, AVX-512 x86-64 (the blocks interleaved, median of 15 best-of-30):
#
#   block \ n  24  40  60  80  100  120  160  200  240  300   400
#   40         11  11  28  38   72   88  143  266  351  593  1216
#   64         11  11  18  37   51   72  133  247  361  592  1255
#   80         11  11  17  31   54   71  156  234  361  676  1254
#
# 80 is the fastest up to n = 120 but for 7% at n = 100.  Above, a leaf of
# 75 to 80 unknowns with 150 or more right-hand-side columns costs more than
# one more split: 1.17 times 64's time at n = 160 and 1.14 times at 300.
# Another block size changes the output bits, since the Schur products
# round otherwise.
GTH_BLOCK = 80


class SingularPivotError(ArithmeticError):
    """A pivot vanished during elimination."""


def _zeros(like, shape):
    """Zeros in the arithmetic of `like`: a float64 ndarray or a precision.DD."""
    if type(like) is np.ndarray:  # a missed getattr costs more than np.zeros
        return np.zeros(shape)
    return getattr(type(like), "zeros", np.zeros)(shape)


# The compiled kernels, one C source for both arithmetics.  gth_eliminate is
# _eliminate's pass for binary64 arrays with unit column stride and, asked to
# solve, _unit_upper_solve's back-substitution, in one call.  Its pivot is
# numpy's own pairwise sum of the strided column (8 accumulators, blocks of
# 128, halving above), and its update and sweep round as numpy's do,
# w_ij + (w_ik / d_k) w_kj and y_ij + (w_ik / d_i) y_kj, so the two give the
# same bits.  It runs across each row in vector_size lanes of 8, 4 and 2
# doubles; each lane rounds as a scalar would.  The pair kernels
# transcribe precision's operation for operation: two_sum to dd_div as
# _two_sum to _dd_div, fsum_add and fsum_round as CPython's math.fsum
# (Shewchuk's partials, then the sum rounded half to even across them),
# dd_gth_solve as _eliminate and _back_substitute on DD arrays, and fold as
# precision.dd_sum's pairwise fold.  The last section is compiled for
# AVX-512F by the target attribute alone: tensor's half-slab product
# (half_slab_build lays out a fully stored tensor's half slab, and
# half_slab_contract adds einsum's terms over it in einsum's order, 8 lanes
# a vector) and gth_eliminate_avx512f, the binary64 pass's second entry
# point, the same body (gth_pass) with its lanes in ZMM registers.  Only an
# x86-64 compiler with that attribute, vector_size and a <cpuid.h> that
# defines __cpuid_count, bit_AVX512F and bit_OSXSAVE builds the section
# (GCC 5 and 6 have the attribute but not __get_cpuid_count).  It is taken,
# once at import, only where avx512f_cpu says the CPU and its operating
# system run AVX-512F (_avx512f_kernels, _leaf); elsewhere the product is
# einsum's and the pass gth_eliminate, the baseline build.  avx512f_cpu
# reads CPUID itself: __builtin_cpu_supports links 4.5 KB of libgcc's CPU
# detection in ahead of this code, which moved the pass's loops to another
# alignment and made gth_col_solve at n = 80 about 7% slower.  For the same
# reason graph_product comes last, past that section, so that no symbol
# before it moves: tensor.PageRankTensor's product in one pass over its n^2
# entries, S's CSR sum in scipy's order and the numpy expression's other
# operations in the expression's order.  precision's pair products come after
# it: dd_slab_build (precision.dd_slab, with its renormalization),
# dd_contract (the folds of products with a vector: dd_contract_slab and @)
# and dd_contract_runs (dd_contract_sym).  Each is one always_inline body
# with a baseline entry and, in a second part of the AVX-512F section
# (AVX512F_SECTION), an AVX-512F entry, chosen once at import
# (_pair_entries).  Every pair helper they call is inlined into each entry,
# in lanes of 8 (pairs8) under the same names with an 8: scalar helpers
# called from AVX-512 code made the slab build at n = 24 take 2.7 ms, against
# about 0.1 ms inlined.
_GTH_C = r"""
#include <math.h>
#include <stddef.h>
#include <string.h>

/* numpy's pairwise sum of the n <= 128 entries a[i s]: 8 accumulators */
static inline __attribute__((always_inline)) double
pairwise_block(const double *a, ptrdiff_t n, ptrdiff_t s)
{
    ptrdiff_t i, j;
    double r[8], res = -0.0;
    if (n < 8) {
        for (i = 0; i < n; i++) res += a[i * s];
        return res;
    }
    for (j = 0; j < 8; j++) r[j] = a[j * s];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++) r[j] += a[(i + j) * s];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++) res += a[i * s];
    return res;
}

/* numpy's pairwise sum of the n entries a[i s], halving above 128 */
static double pairwise_sum(const double *a, ptrdiff_t n, ptrdiff_t s)
{
    ptrdiff_t h = n / 2;
    if (n <= 128) return pairwise_block(a, n, s);
    h -= h % 8;
    return pairwise_sum(a, h, s) + pairwise_sum(a + h * s, n - h, s);
}

/* 8, 4 and 2 doubles at any 8-byte boundary, as a row's entries lie */
typedef double lanes __attribute__((vector_size(64), aligned(8), may_alias));
typedef double lanes4 __attribute__((vector_size(32), aligned(8), may_alias));
typedef double lanes2 __attribute__((vector_size(16), aligned(8), may_alias));

/* y_j += c x_j for j < m, each product and sum rounded, 8 lanes at a time
   and the rest in 4, 2 and 1 */
static inline __attribute__((always_inline)) void
add_scaled(double *y, const double *x, double c, ptrdiff_t m)
{
    ptrdiff_t j = 0;
    for (; j + 8 <= m; j += 8) *(lanes *)(y + j) += c * *(const lanes *)(x + j);
    if (j + 4 <= m) {
        *(lanes4 *)(y + j) += c * *(const lanes4 *)(x + j);
        j += 4;
    }
    if (j + 2 <= m) {
        *(lanes2 *)(y + j) += c * *(const lanes2 *)(x + j);
        j += 2;
    }
    if (j < m) y[j] += c * x[j];
}

/* w: n + 1 rows of m entries, ld apart; the pivots go to d.  Then, if solve,
   the back-substitution of the columns past n in LAPACK's form: every row
   y_i of them divided by d_i, then for k = n - 1, ..., 1, y_i += (w_ik /
   d_i) y_k for every i < k.  Returns 0, or k + 1 if pivot k is not positive
   (a NaN pivot passes).  Inlined into each entry point, so that all of it
   runs in that entry's instruction set: a call from AVX-512 code into SSE
   code would pay for the switch, so only a pivot column of more than 128
   entries calls out, to pairwise_sum. */
static inline __attribute__((always_inline)) ptrdiff_t
gth_pass(double *w, ptrdiff_t n, ptrdiff_t m, ptrdiff_t ld, double *d, int solve)
{
    ptrdiff_t i, j, k;
    for (k = 0; k < n; k++) {
        const double *col = w + (k + 1) * ld + k;  /* column k below its pivot */
        double dk = n - k > 128 ? pairwise_sum(col, n - k, ld) : pairwise_block(col, n - k, ld);
        if (dk <= 0.0) return k + 1;
        d[k] = dk;
        if (k == n - 1) break;  /* it would update only the sums' right-hand sides */
        for (i = k + 1; i <= n; i++)
            add_scaled(w + i * ld + k + 1, w + k * ld + k + 1, w[i * ld + k] / dk, m - k - 1);
    }
    if (!solve) return 0;
    for (i = 0; i < n; i++) {
        double *y = w + i * ld + n;
        for (j = 0; j + 8 <= m - n; j += 8) *(lanes *)(y + j) /= d[i];
        for (; j < m - n; j++) y[j] /= d[i];
    }
    for (k = n - 1; k > 0; k--)
        for (i = 0; i < k; i++)
            add_scaled(w + i * ld + n, w + k * ld + n, w[i * ld + k] / d[i], m - n);
    return 0;
}

ptrdiff_t gth_eliminate(double *w, ptrdiff_t n, ptrdiff_t m, ptrdiff_t ld, double *d, int solve)
{
    return gth_pass(w, n, m, ld, d, solve);
}

typedef struct { double hi, lo; } pair;

static pair two_sum(double a, double b)
{
    double s = a + b, bb = s - a;
    pair r = {s, (a - (s - bb)) + (b - bb)};
    return r;
}

static pair quick_two_sum(double a, double b)
{
    double s = a + b;
    pair r = {s, b - (s - a)};
    return r;
}

static pair two_prod(double a, double b)
{
    double p = a * b, c = 134217729.0 * a, d = 134217729.0 * b;
    double ahi = c - (c - a), alo = a - ahi, bhi = d - (d - b), blo = b - bhi;
    pair r = {p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo};
    return r;
}

static pair dd_add(pair x, pair y)
{
    pair s = two_sum(x.hi, y.hi), t = two_sum(x.lo, y.lo);
    s = quick_two_sum(s.hi, s.lo + t.hi);
    return quick_two_sum(s.hi, s.lo + t.lo);
}

static pair dd_mul(pair x, pair y)
{
    pair p = two_prod(x.hi, y.hi);
    return quick_two_sum(p.hi, p.lo + (x.hi * y.lo + x.lo * y.hi));
}

static pair dd_div(pair x, pair y)
{
    pair minus_y = {-y.hi, -y.lo}, q1 = {x.hi / y.hi, 0.0}, q2, q3, r;
    q1.lo = 0.0 * q1.hi;
    r = dd_add(x, dd_mul(q1, minus_y));
    q2.hi = r.hi / y.hi;
    q2.lo = 0.0 * q2.hi;
    r = dd_add(r, dd_mul(q2, minus_y));
    q3.hi = r.hi / y.hi;
    q3.lo = 0.0 * q3.hi;
    return dd_add(quick_two_sum(q1.hi, q2.hi), q3);
}

/* Adds x to the *n partials p, smallest first, as math.fsum does.  Returns
   -1 if the sum is not finite, where fsum sets partials aside (NaN, inf) or
   raises (inf - inf, overflow), else 0. */
static int fsum_add(double *p, ptrdiff_t *n, double x)
{
    ptrdiff_t i = 0, j;
    for (j = 0; j < *n; j++) {
        double y = p[j], hi, lo;
        if (fabs(x) < fabs(y)) {
            hi = x;
            x = y;
            y = hi;
        }
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0) p[i++] = lo;
        x = hi;
    }
    *n = i;
    if (x != 0.0) {
        if (!isfinite(x)) return -1;
        p[(*n)++] = x;
    }
    return 0;
}

/* The sum of the n partials p rounded once, as math.fsum returns it. */
static double fsum_round(const double *p, ptrdiff_t n)
{
    double hi = 0.0, lo = 0.0, x, y;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0) break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            if (y == x - hi) hi = x;
        }
    }
    return hi;
}

#define HI(i, j) wh[(i) * ld + (j)]
#define LO(i, j) wl[(i) * ld + (j)]
#define AT(i, j) ((pair){HI(i, j), LO(i, j)})
#define PUT(i, j, v) do { pair v_ = (v); HI(i, j) = v_.hi; LO(i, j) = v_.lo; } while (0)

/* The pair pass on w = wh + wl, n + 1 rows of m entries, ld apart, with the
   pivots to dh + dl, then, if solve, the back-substitution of the columns
   past n.  p holds 2 n + 1 partials.  Returns 0; k + 1 if pivot k is not
   positive; or -(k + 1) if column k has a part that is not finite or sums
   past the largest double, leaving the pass from step k to Python. */
ptrdiff_t dd_gth_solve(double *wh, double *wl, ptrdiff_t n, ptrdiff_t m, ptrdiff_t ld,
                       double *dh, double *dl, double *p, int solve)
{
    ptrdiff_t i, j, k, np;
    for (k = 0; k < n; k++) {
        pair dk;
        np = 0;
        for (i = k + 1; i <= n; i++)  /* fsum of the hi parts, then the lo parts */
            if (fsum_add(p, &np, HI(i, k))) return -(k + 1);
        for (i = k + 1; i <= n; i++)
            if (fsum_add(p, &np, LO(i, k))) return -(k + 1);
        dk.hi = fsum_round(p, np);
        if (fsum_add(p, &np, -dk.hi)) return -(k + 1);
        dk.lo = fsum_round(p, np);
        if (dk.hi + dk.lo <= 0.0) return k + 1;
        dh[k] = dk.hi;
        dl[k] = dk.lo;
        if (k == n - 1) break;
        for (i = k + 1; i <= n; i++) {
            pair c = dd_div(AT(i, k), dk);
            for (j = k + 1; j < m; j++) PUT(i, j, dd_add(AT(i, j), dd_mul(c, AT(k, j))));
        }
    }
    for (k = n - 1; solve && k >= 0; k--) {
        pair one = {1.0, 0.0}, r = dd_div(one, (pair){dh[k], dl[k]});
        for (j = n; j < m; j++) PUT(k, j, dd_mul(AT(k, j), r));
        for (i = 0; i < k; i++)
            for (j = n; j < m; j++) PUT(i, j, dd_add(AT(i, j), dd_mul(AT(i, k), AT(k, j))));
    }
    return 0;
}

/* precision.dd_sum's pairwise fold of the m pairs th + tl, in place. */
static pair fold(double *th, double *tl, ptrdiff_t m)
{
    while (m > 1) {
        ptrdiff_t i, half = m / 2;
        pair s;
        for (i = 0; i < half; i++) {
            s = dd_add((pair){th[i], tl[i]}, (pair){th[half + i], tl[half + i]});
            th[i] = s.hi;
            tl[i] = s.lo;
        }
        if (m % 2) {
            s = dd_add((pair){th[0], tl[0]}, (pair){th[m - 1], tl[m - 1]});
            th[0] = s.hi;
            tl[0] = s.lo;
        }
        m = half;
    }
    return (pair){th[0], tl[0]};
}

/* o[c] = the fold over r < m of v[r q + c], for each c < q: precision.dd_sum
   along the first axis of a C-contiguous m x q array.  t holds 2 m doubles. */
void dd_fold(ptrdiff_t m, ptrdiff_t q, const double *vh, const double *vl,
             double *oh, double *ol, double *t)
{
    ptrdiff_t c, r;
    for (c = 0; c < q; c++) {
        pair o;
        for (r = 0; r < m; r++) {
            t[r] = vh[r * q + c];
            t[m + r] = vl[r * q + c];
        }
        o = fold(t, t + m, m);
        oh[c] = o.hi;
        ol[c] = o.lo;
    }
}

/* o[s] = the fold of v[bounds[s]] .. v[bounds[s + 1] - 1], 0 for none; every
   bound lies in 0 .. v's length.  t holds 2 doubles per term of the longest
   run. */
void dd_fold_runs(ptrdiff_t runs, const ptrdiff_t *bounds, const double *vh,
                  const double *vl, double *oh, double *ol, double *t)
{
    ptrdiff_t s, r;
    for (s = 0; s < runs; s++) {
        ptrdiff_t m = bounds[s + 1] - bounds[s];
        pair o = {0.0, 0.0};
        for (r = 0; r < m; r++) {
            t[r] = vh[bounds[s] + r];
            t[m + r] = vl[bounds[s] + r];
        }
        if (m > 0) o = fold(t, t + m, m);
        oh[s] = o.hi;
        ol[s] = o.lo;
    }
}

#if defined(__x86_64__) && defined(__has_attribute) && defined(__has_include)
#if __has_attribute(target) && __has_attribute(vector_size) && __has_include(<cpuid.h>)
#include <cpuid.h>
#if defined(__cpuid_count) && defined(bit_AVX512F) && defined(bit_OSXSAVE)
#define AVX512F_SECTION  /* also builds the pair products' AVX-512F entries, at the end */

/* The half slab of a fully stored tensor, the n^3 values a[i n^2 + k n + j]
   = b_ijk: slices i in groups of 8, group g at h + 8 g t, t = n (n + 1) / 2;
   in it, K[k, i, j] = b_ijk + b_ikj for k <= j at 8 (j (j + 1) / 2 + k) +
   i - 8 g, 0.0 for the i >= n that pad the last group. */
void half_slab_build(const double *a, ptrdiff_t n, double *h)
{
    ptrdiff_t g, i, j, k, t = n * (n + 1) / 2;
    for (g = 0; g < (n + 7) / 8; g++)
        for (j = 0; j < n; j++)
            for (k = 0; k <= j; k++) {
                double *e = h + 8 * (g * t + j * (j + 1) / 2 + k);
                for (i = 0; i < 8; i++) {
                    ptrdiff_t s = (8 * g + i) * n * n;
                    e[i] = 8 * g + i < n ? a[s + k * n + j] + a[s + j * n + k] : 0.0;
                }
            }
}

typedef double v8d __attribute__((vector_size(64)));

/* K[k, i, j] of the group at q as 8 lanes, i = 8 g .. 8 g + 7. */
#define HALF(q, j, k) (q)[(k) <= (j) ? (j) * ((j) + 1) / 2 + (k) : (k) * ((k) + 1) / 2 + (j)]

/* c[i n + j] = the sum over k = 0, 1, ..., n - 1 of K[k, i, j] x[k], each
   term rounded, then added to a sum started from 0.0: einsum's terms in
   einsum's order, 8 slices a vector and 4 columns j at a time.  h is 64-byte
   aligned. */
__attribute__((target("avx512f")))
void half_slab_contract(const double *h, ptrdiff_t n, const double *x, double *c)
{
    ptrdiff_t g, i, j, k, t = n * (n + 1) / 2;
    for (g = 0; g < (n + 7) / 8; g++) {
        const v8d *q = (const v8d *)(h + 8 * g * t);
        ptrdiff_t lanes = n - 8 * g < 8 ? n - 8 * g : 8;
        for (j = 0; j + 4 <= n; j += 4) {
            const v8d *c0 = q + j * (j + 1) / 2, *c1 = c0 + j + 1, *c2 = c1 + j + 2,
                      *c3 = c2 + j + 3;
            v8d s0 = {0.0}, s1 = {0.0}, s2 = {0.0}, s3 = {0.0};
            for (k = 0; k < j; k++) {  /* k <= j for all four: down the columns */
                s0 += c0[k] * x[k];
                s1 += c1[k] * x[k];
                s2 += c2[k] * x[k];
                s3 += c3[k] * x[k];
            }
            for (; k < j + 4; k++) {
                s0 += HALF(q, j, k) * x[k];
                s1 += HALF(q, j + 1, k) * x[k];
                s2 += HALF(q, j + 2, k) * x[k];
                s3 += HALF(q, j + 3, k) * x[k];
            }
            for (; k < n; k++) {  /* k > j: along the rows, K[k, i, j] = K[j, i, k] */
                const v8d *r = q + k * (k + 1) / 2 + j;
                s0 += r[0] * x[k];
                s1 += r[1] * x[k];
                s2 += r[2] * x[k];
                s3 += r[3] * x[k];
            }
            for (i = 0; i < lanes; i++) {
                double *o = c + (8 * g + i) * n + j;
                o[0] = s0[i];
                o[1] = s1[i];
                o[2] = s2[i];
                o[3] = s3[i];
            }
        }
        for (; j < n; j++) {
            v8d s = {0.0};
            for (k = 0; k < n; k++) s += HALF(q, j, k) * x[k];
            for (i = 0; i < lanes; i++) c[(8 * g + i) * n + j] = s[i];
        }
    }
}

/* gth_eliminate, its lanes in ZMM registers */
__attribute__((target("avx512f")))
ptrdiff_t gth_eliminate_avx512f(double *w, ptrdiff_t n, ptrdiff_t m, ptrdiff_t ld, double *d,
                                int solve)
{
    return gth_pass(w, n, m, ld, d, solve);
}

/* Whether this CPU has AVX-512F and its operating system saves the ZMM
   registers (XCR0 bits 1, 2 and 5 to 7), so that it runs half_slab_contract
   and gth_eliminate_avx512f. */
int avx512f_cpu(void)
{
    unsigned a, b, c, d, xcr0, high;
    if (__get_cpuid_max(0, 0) < 7) return 0;
    __cpuid_count(7, 0, a, b, c, d);
    if (!(b & bit_AVX512F)) return 0;
    if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_OSXSAVE)) return 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(high) : "c"(0));
    return (xcr0 & 0xe6) == 0xe6;
}

#endif
#endif
#endif

/* tensor.PageRankTensor's product: for r = i n + j, c[r] = nu (s + v_i d_j)
   + omn (f_i + F[r] sigma), the numpy expression's operations in its order,
   where s adds val[p] x[col[p]] over the entries ptr[r] <= p < ptr[r + 1] of
   row r of S, in storage order from +0.0, as scipy's csr_matvec does.  Row i
   of c is formed in lanes of 8, then 1, with s = +0.0, what an empty row of
   S sums to; then its entries at the rows of S that have entries, the m
   listed in rows in ascending order, are formed again with their sums. */
void graph_product(ptrdiff_t n, const int *rows, ptrdiff_t m, const int *ptr, const int *col,
                   const double *val, const double *v, const double *F, double nu, double omn,
                   const double *x, const double *d, const double *f, double sigma, double *c)
{
    ptrdiff_t i, j, p, q = 0;
    for (i = 0; i < n; i++) {
        double *o = c + i * n, vi = v[i], fi = f[i];
        const double *Fi = F + i * n;
        const lanes zero = {0.0};
        for (j = 0; j + 8 <= n; j += 8)
            *(lanes *)(o + j) = nu * (zero + vi * *(const lanes *)(d + j))
                                + omn * (fi + *(const lanes *)(Fi + j) * sigma);
        for (; j < n; j++) o[j] = nu * (0.0 + vi * d[j]) + omn * (fi + Fi[j] * sigma);
        for (; q < m && rows[q] < (i + 1) * n; q++) {
            double s = 0.0;
            for (p = ptr[rows[q]]; p < ptr[rows[q] + 1]; p++) s += val[p] * x[col[p]];
            j = rows[q] - i * n;
            o[j] = nu * (s + vi * d[j]) + omn * (fi + Fi[j] * sigma);
        }
    }
}

/* The pair products of precision, each lane of 8 rounded as precision's
   numpy expressions round one entry.  Every helper is inlined into each
   entry point, so that all of a pass runs in that entry's instruction set. */
#define PAIR_INLINE static inline __attribute__((always_inline))

typedef struct { lanes hi, lo; } pairs8;

/* Helpers return pairs8, never a bare lanes, whose return in registers
   GCC's -Wpsabi flags in a baseline build. */
PAIR_INLINE pairs8 splat_pair(double hi, double lo)
{
    const lanes one = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    pairs8 r = {hi * one, lo * one};  /* a broadcast: x 1 is x */
    return r;
}

/* h[0 .. w - 1] + l[0 .. w - 1], w <= 8, in the first w lanes, 0.0 in the
   rest.  A short group goes through a buffer by memcpy: lane by lane, its
   loads and stores made the library's build about 0.3 s longer (GCC 12). */
PAIR_INLINE pairs8 load_pairs8(const double *h, const double *l, ptrdiff_t w)
{
    double b[16] = {0.0};
    pairs8 r;
    if (w < 8) {
        memcpy(b, h, w * sizeof(double));
        memcpy(b + 8, l, w * sizeof(double));
        h = b;
        l = b + 8;
    }
    r.hi = *(const lanes *)h;
    r.lo = *(const lanes *)l;
    return r;
}

PAIR_INLINE void store_pairs8(double *h, double *l, pairs8 v, ptrdiff_t w)
{
    double b[16];
    if (w == 8) {
        *(lanes *)h = v.hi;
        *(lanes *)l = v.lo;
        return;
    }
    *(lanes *)b = v.hi;
    *(lanes *)(b + 8) = v.lo;
    memcpy(h, b, w * sizeof(double));
    memcpy(l, b + 8, w * sizeof(double));
}

/* two_sum to dd_div above, in lanes */
PAIR_INLINE pairs8 two_sum8(lanes a, lanes b)
{
    lanes s = a + b, bb = s - a;
    pairs8 r = {s, (a - (s - bb)) + (b - bb)};
    return r;
}

PAIR_INLINE pairs8 quick_two_sum8(lanes a, lanes b)
{
    lanes s = a + b;
    pairs8 r = {s, b - (s - a)};
    return r;
}

PAIR_INLINE pairs8 two_prod8(lanes a, lanes b)
{
    lanes p = a * b, c = 134217729.0 * a, d = 134217729.0 * b;
    lanes ahi = c - (c - a), alo = a - ahi, bhi = d - (d - b), blo = b - bhi;
    pairs8 r = {p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo};
    return r;
}

PAIR_INLINE pairs8 dd_add8(pairs8 x, pairs8 y)
{
    pairs8 s = two_sum8(x.hi, y.hi), t = two_sum8(x.lo, y.lo);
    s = quick_two_sum8(s.hi, s.lo + t.hi);
    return quick_two_sum8(s.hi, s.lo + t.lo);
}

/* not commutative bit for bit: x.hi y.lo is added before x.lo y.hi */
PAIR_INLINE pairs8 dd_mul8(pairs8 x, pairs8 y)
{
    pairs8 p = two_prod8(x.hi, y.hi);
    return quick_two_sum8(p.hi, p.lo + (x.hi * y.lo + x.lo * y.hi));
}

/* dd_div's two refinements as a loop, so that its body is built once */
PAIR_INLINE pairs8 dd_div8(pairs8 x, pairs8 y)
{
    pairs8 minus_y = {-y.hi, -y.lo}, q[2];
    int k;
    for (k = 0; k < 2; k++) {
        q[k].hi = x.hi / y.hi;
        q[k].lo = 0.0 * q[k].hi;
        x = dd_add8(x, dd_mul8(q[k], minus_y));
    }
    q[1] = quick_two_sum8(q[0].hi, q[1].hi);
    q[0].hi = x.hi / y.hi;
    q[0].lo = 0.0 * q[0].hi;
    return dd_add8(q[1], q[0]);
}

/* fold above, each lane of the m pairs t[r] apart, in place; the odd pair
   of a halving is added last, in the same loop, so that dd_add8 is built
   once */
PAIR_INLINE pairs8 fold8(pairs8 *t, ptrdiff_t m)
{
    while (m > 1) {
        ptrdiff_t r, half = m / 2;
        for (r = 0; r < half + m % 2; r++) {
            ptrdiff_t to = r < half ? r : 0;
            t[to] = dd_add8(t[to], t[r < half ? half + r : m - 1]);
        }
        m = half;
    }
    return t[0];
}

/* precision.dd_slab: K[k, i, j] = V[i, k, j] + V[i, j, k], k n^2 + i n + j
   in kh + kl, for the n^3 pairs V[i, k, j] = v[i n^2 + k n + j], v = vh +
   vl.  With alpha (its two parts), v is first renormalized as
   precision.dd_slab does: V[i, c] = v[i n^2 + c] (alpha / s_c), s_c the
   fold over i of column c, its n^2 reciprocals formed in lanes of 8
   columns.  Slice i then goes in turn: V[i, :] and its transpose, then
   K[:, i, :] from the two in lanes of 8.  t holds 6 n^2 + 16 n doubles. */
PAIR_INLINE void slab_pass(ptrdiff_t n, const double *vh, const double *vl, const double *alpha,
                           double *kh, double *kl, double *t)
{
    ptrdiff_t c, i, j, k, w, nn = n * n;
    double *rh = t, *rl = t + nn, *sh = t + 2 * nn, *sl = t + 3 * nn, *th = t + 4 * nn,
           *tl = t + 5 * nn;
    pairs8 *f = (pairs8 *)(t + 6 * nn);
    if (alpha) {
        pairs8 a = splat_pair(alpha[0], alpha[1]);
        for (c = 0; c < nn; c += 8) {
            w = nn - c < 8 ? nn - c : 8;
            for (i = 0; i < n; i++) f[i] = load_pairs8(vh + i * nn + c, vl + i * nn + c, w);
            store_pairs8(rh + c, rl + c, dd_div8(a, fold8(f, n)), w);
        }
    }
    for (i = 0; i < n; i++) {
        const double *uh = vh + i * nn, *ul = vl + i * nn;
        if (alpha) {  /* V[i, :] */
            for (c = 0; c < nn; c += 8) {
                w = nn - c < 8 ? nn - c : 8;
                store_pairs8(sh + c, sl + c, dd_mul8(load_pairs8(uh + c, ul + c, w),
                                                     load_pairs8(rh + c, rl + c, w)), w);
            }
            uh = sh;
            ul = sl;
        }
        for (k = 0; k < n; k++)
            for (j = 0; j < n; j++) {
                th[k * n + j] = uh[j * n + k];
                tl[k * n + j] = ul[j * n + k];
            }
        for (k = 0; k < n; k++)
            for (j = 0; j < n; j += 8) {
                w = n - j < 8 ? n - j : 8;
                store_pairs8(kh + k * nn + i * n + j, kl + k * nn + i * n + j,
                             dd_add8(load_pairs8(uh + k * n + j, ul + k * n + j, w),
                                     load_pairs8(th + k * n + j, tl + k * n + j, w)), w);
            }
    }
}

/* o[c] = the fold over r < m of K[r q + c] x[r], for c < q: precision.dd_sum
   of the products dd_mul(K[r q + c], x[r]), 8 columns c at a time, for a
   C-contiguous m x q K = kh + kl, m >= 1.  t holds 16 m doubles. */
PAIR_INLINE void contract_pass(ptrdiff_t m, ptrdiff_t q, const double *kh, const double *kl,
                               const double *xh, const double *xl, double *oh, double *ol,
                               double *t)
{
    ptrdiff_t c, r, w;
    pairs8 *f = (pairs8 *)t;
    for (c = 0; c < q; c += 8) {
        w = q - c < 8 ? q - c : 8;
        for (r = 0; r < m; r++)
            f[r] = dd_mul8(load_pairs8(kh + r * q + c, kl + r * q + c, w), splat_pair(xh[r], xl[r]));
        store_pairs8(oh + c, ol + c, fold8(f, m), w);
    }
}

/* o[s] = the fold of the products dd_mul(d[p], x[idx[p]]) over bounds[s] <=
   p < bounds[s + 1], 0 for none: precision._dd_segment_sums of data *
   x[indices], each pair in all 8 lanes.  d = dh + dl has nnz pairs, x = xh +
   xl has n.  t holds 16 cap doubles.  Returns 0, or -1, before any product,
   if a bound is out of order or past nnz, a run is longer than cap or an
   index is not below n. */
PAIR_INLINE ptrdiff_t runs_pass(ptrdiff_t runs, const ptrdiff_t *bounds, ptrdiff_t nnz,
                                const double *dh, const double *dl, const ptrdiff_t *idx,
                                ptrdiff_t n, const double *xh, const double *xl, double *oh,
                                double *ol, double *t, ptrdiff_t cap)
{
    ptrdiff_t s, p;
    pairs8 *f = (pairs8 *)t, o;
    if (bounds[0] < 0) return -1;
    for (s = 0; s < runs; s++)
        if (bounds[s + 1] < bounds[s] || bounds[s + 1] > nnz || bounds[s + 1] - bounds[s] > cap)
            return -1;
    for (p = bounds[0]; p < bounds[runs]; p++)
        if (idx[p] < 0 || idx[p] >= n) return -1;
    for (s = 0; s < runs; s++) {
        ptrdiff_t b = bounds[s], m = bounds[s + 1] - b;
        oh[s] = ol[s] = 0.0;
        if (m == 0) continue;
        for (p = 0; p < m; p++)
            f[p] = dd_mul8(splat_pair(dh[b + p], dl[b + p]),
                           splat_pair(xh[idx[b + p]], xl[idx[b + p]]));
        o = fold8(f, m);
        oh[s] = o.hi[0];
        ol[s] = o.lo[0];
    }
    return 0;
}

void dd_slab_build(ptrdiff_t n, const double *vh, const double *vl, const double *alpha,
                   double *kh, double *kl, double *t)
{
    slab_pass(n, vh, vl, alpha, kh, kl, t);
}

void dd_contract(ptrdiff_t m, ptrdiff_t q, const double *kh, const double *kl, const double *xh,
                 const double *xl, double *oh, double *ol, double *t)
{
    contract_pass(m, q, kh, kl, xh, xl, oh, ol, t);
}

ptrdiff_t dd_contract_runs(ptrdiff_t runs, const ptrdiff_t *bounds, ptrdiff_t nnz,
                           const double *dh, const double *dl, const ptrdiff_t *idx, ptrdiff_t n,
                           const double *xh, const double *xl, double *oh, double *ol, double *t,
                           ptrdiff_t cap)
{
    return runs_pass(runs, bounds, nnz, dh, dl, idx, n, xh, xl, oh, ol, t, cap);
}

#ifdef AVX512F_SECTION
/* the same bodies, their lanes in ZMM registers */
__attribute__((target("avx512f")))
void dd_slab_build_avx512f(ptrdiff_t n, const double *vh, const double *vl, const double *alpha,
                           double *kh, double *kl, double *t)
{
    slab_pass(n, vh, vl, alpha, kh, kl, t);
}

__attribute__((target("avx512f")))
void dd_contract_avx512f(ptrdiff_t m, ptrdiff_t q, const double *kh, const double *kl,
                         const double *xh, const double *xl, double *oh, double *ol, double *t)
{
    contract_pass(m, q, kh, kl, xh, xl, oh, ol, t);
}

__attribute__((target("avx512f")))
ptrdiff_t dd_contract_runs_avx512f(ptrdiff_t runs, const ptrdiff_t *bounds, ptrdiff_t nnz,
                                   const double *dh, const double *dl, const ptrdiff_t *idx,
                                   ptrdiff_t n, const double *xh, const double *xl, double *oh,
                                   double *ol, double *t, ptrdiff_t cap)
{
    return runs_pass(runs, bounds, nnz, dh, dl, idx, n, xh, xl, oh, ol, t, cap);
}
#endif
"""
# No contraction into fused multiply-adds and no fast-math: IEEE rounding
# of every operation, as numpy's.  No -march=native either: the cache key
# names only platform.machine(), so only the AVX-512F section is built for
# more than the machine's baseline, and it is chosen at run time.  Loops
# keep the compiler's alignment: -falign-loops=32 won 6 and 7 of 10
# alternating runs of gth_col_solve at n = 80 and 120.
_GTH_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build_gth_leaf(cc, path):
    """Compile _GTH_C to path: under a temporary name beside it, then moved
    into place, so a concurrent reader sees a whole library or none.  The
    compiler's output is captured, never printed."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_GTH_FLAGS, "-x", "c", "-", "-o", tmp], input=_GTH_C, text=True,
            capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_gth_kernels():
    """_GTH_C's library through ctypes, or None if there is no C compiler
    ("cc" on PATH) or the build fails.

    The library is cached per user, under $XDG_CACHE_HOME/mlpagerank or
    ~/.cache/mlpagerank, named by a hash of the source, the flags and the
    machine; a cache that cannot be written gives way to a private temporary
    directory, removed once the library is loaded.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    key = "\0".join((_GTH_C, *_GTH_FLAGS, platform.machine()))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mlpagerank"
    path = cache / f"gth-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"
    private = None
    try:
        if not path.exists():
            try:
                cache.mkdir(parents=True, exist_ok=True)
                _build_gth_leaf(cc, path)
            except OSError:
                private = Path(tempfile.mkdtemp(prefix="mlpagerank-"))
                path = private / path.name
                _build_gth_leaf(cc, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
    return _bind(lib)


_P, _I, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
# every library has the GTH and pair kernels; only an x86-64 build by a
# compiler with the target attribute has the AVX-512F section's
_KERNELS = (
    ("gth_eliminate", _I, (_P, _I, _I, _I, _P, ctypes.c_int)),
    ("dd_gth_solve", _I, (_P, _P, _I, _I, _I, _P, _P, _P, ctypes.c_int)),
    ("dd_fold", None, (_I, _I, _P, _P, _P, _P, _P)),
    ("dd_fold_runs", None, (_I, _P, _P, _P, _P, _P, _P)),
    ("graph_product", None, (_I, _P, _I, _P, _P, _P, _P, _P, _D, _D, _P, _P, _P, _D, _P)),
)
# the pair products, each with an AVX-512F entry of the same name and _avx512f
_PAIR_PRODUCTS = (
    ("dd_slab_build", None, (_I, _P, _P, _P, _P, _P, _P)),
    ("dd_contract", None, (_I, _I, _P, _P, _P, _P, _P, _P, _P)),
    ("dd_contract_runs", _I, (_I, _P, _I, _P, _P, _P, _I, _P, _P, _P, _P, _P, _I)),
)
_AVX512F_KERNELS = (
    ("half_slab_build", None, (_P, _I, _P)),
    ("half_slab_contract", None, (_P, _I, _P, _P)),
    ("gth_eliminate_avx512f", _I, (_P, _I, _I, _I, _P, ctypes.c_int)),
    ("avx512f_cpu", ctypes.c_int, ()),
    *((name + "_avx512f", result, args) for name, result, args in _PAIR_PRODUCTS),
)


def _bind(lib):
    """Give lib's kernels their ctypes signatures, skipping the ones it lacks; returns lib."""
    for name, result, args in _KERNELS + _PAIR_PRODUCTS + _AVX512F_KERNELS:
        kernel = getattr(lib, name, None)
        if kernel is not None:
            kernel.argtypes, kernel.restype = args, result
    return lib


def _avx512f_kernels(lib):
    """lib if it has the AVX-512F section and this CPU runs it, else None."""
    if lib is None or any(getattr(lib, name, None) is None for name, _, _ in _AVX512F_KERNELS):
        return None
    return lib if lib.avx512f_cpu() else None


def _leaf(lib):
    """lib's binary64 pass: its AVX-512F entry where that runs, else its
    baseline one; None without a library."""
    if lib is None:
        return None
    fast = _avx512f_kernels(lib)
    return fast.gth_eliminate_avx512f if fast else lib.gth_eliminate


def _pair_entries(lib):
    """lib's pair products as the attributes of one namespace: their
    AVX-512F entries where those run, else their baseline ones; None without
    a library or where it lacks them."""
    if lib is None or any(getattr(lib, name, None) is None for name, _, _ in _PAIR_PRODUCTS):
        return None
    suffix = "_avx512f" if _avx512f_kernels(lib) else ""
    return types.SimpleNamespace(**{name: getattr(lib, name + suffix)
                                    for name, _, _ in _PAIR_PRODUCTS})


# _gth_leaf runs the binary64 pass, _pair_kernels (the library, or None) the
# pair passes and folds, _pair_products (a namespace, or None) the pair
# products, _half_slab (the library again, or None) tensor's half-slab
# product and _graph_product the product of a graph's PageRank tensor; any of
# them set to None runs the Python code (precision's numpy expressions, the
# slab's einsum, the factored product's numpy expression) instead.
_pair_kernels = _load_gth_kernels()
_gth_leaf = _leaf(_pair_kernels)
_pair_products = _pair_entries(_pair_kernels)
_half_slab = _avx512f_kernels(_pair_kernels)
_graph_product = None if _pair_kernels is None else _pair_kernels.graph_product


_from_buffer, _addressof = ctypes.c_char.from_buffer, ctypes.addressof


def _address(a):
    """The address of a's first entry, as a.ctypes.data gives it.  A
    writable, C-contiguous, nonempty a is read through a ctypes view of its
    buffer, at about a third of the cost (0.4 against 1.4 us); any other
    through a.ctypes."""
    try:
        return _addressof(_from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _unit_column_stride(a):
    """Whether the binary64 array a has rows of contiguous, aligned entries
    at a whole number of entries apart, as the compiled passes read them."""
    return (a.dtype == np.float64 and a.strides[1] == 8 and a.strides[0] % 8 == 0
            and a.flags.aligned and a.flags.writeable)


def _compiled_pass(W, offset, solve):
    """The compiled part of _eliminate: (d, start, solved), the pivots, the
    first step left to the Python pass (n once the compiled pass has run to
    the end) and whether the right-hand sides are solved too.

    A binary64 W runs _gth_leaf, a pair W dd_gth_solve; either also
    back-substitutes if solve, in the same call.  The pair pass hands a pivot
    column with a part that is not finite, or whose sum overflows, to the
    Python pass, so that math.fsum's NaN, inf and errors stand there.
    Returns (zeros, 0, False) where no compiled pass applies.
    """
    n = W.shape[0] - 1
    start, solved = n, False
    if type(W) is np.ndarray:
        if _gth_leaf is None or W.shape[1] < n or not _unit_column_stride(W):
            return _zeros(W, n), 0, False
        d = np.empty(n)
        k = _gth_leaf(_address(W), n, W.shape[1], W.strides[0] // 8, _address(d), solve)
        solved = solve
    else:
        hi, lo = W.hi, W.lo
        if (_pair_kernels is None or W.shape[1] < n or hi.strides != lo.strides
                or not (_unit_column_stride(hi) and _unit_column_stride(lo))):
            return _zeros(W, n), 0, False
        # the pivots' two parts, then room for the partials of a pivot sum
        buf = np.empty(4 * n + 1)
        at = _address(buf)
        d = type(W)(buf[:n], buf[n : 2 * n])
        k = _pair_kernels.dd_gth_solve(_address(hi), _address(lo), n, W.shape[1],
                                       hi.strides[0] // 8, at, at + 8 * n, at + 16 * n, solve)
        if k < 0:  # step -k - 1 and on are the Python pass's
            start, k = -k - 1, 0
        else:
            solved = solve
    if k:
        raise SingularPivotError(f"zero pivot at step {offset + k}")
    return d, start, solved


def _eliminate(W, offset=0, solve=False):
    """The GTH forward pass, in place, on the augmented column-oriented W.

    W has n + 1 rows: the leading n x n block holds the off-diagonal
    magnitudes, row n the column sums, and columns past n are right-hand
    sides, eliminated along with the matrix.  Pivot k is the sum of column k
    below row k, the sums entry last, so the diagonal is never read.  Step k
    adds (W_ik / d_k) W_kj to every entry below and right of the pivot, the
    sums row and the right-hand sides included: nonnegative terms only.  W
    then holds U's strict upper part negated, L's strict lower part times
    -d, and the forward-eliminated right-hand sides.  Returns the pivots;
    raises SingularPivotError, before any division by it, if one vanishes,
    naming its step as offset + k + 1.  A NaN pivot does not raise.

    With solve, the right-hand-side columns are then overwritten with the
    solution: in pairs by _back_substitute, in binary64 by
    _unit_upper_solve.

    A W with unit column stride runs compiled (_compiled_pass), with the
    same bits and, unlike numpy, no RuntimeWarning on NaN or inf.  The
    Python code below is its specification, and the fallback without a C
    compiler and for pair pivot columns that are not finite.
    """
    n = W.shape[0] - 1
    d, start, solved = _compiled_pass(W, offset, solve)
    for k in range(start, n):
        dk = W[k + 1 :, k].sum()
        if float(dk) <= 0.0:
            raise SingularPivotError(f"zero pivot at step {offset + k + 1}")
        d[k] = dk
        if k < n - 1:  # the last step would update only the sums' right-hand sides
            rest = W[k + 1 :, k + 1 :]  # += on a view: no copy back into W
            rest += W[k + 1 :, k : k + 1] / dk * W[k : k + 1, k + 1 :]
    if solve and not solved:
        # one right-hand side stays a vector: cheaper steps, in pairs above all
        y = W[:n, n] if W.shape[1] == n + 1 else W[:n, n:]
        getattr(type(W), "gth_substitute", _unit_upper_solve)(W[:n, :n], d, y)
    return d


def _back_substitute(V, d, y):
    """y_k = (y_k + sum_{j>k} V_kj y_j) / d_k for k = n, ..., 1, in place,
    swept by columns: with r = 1 / d from one vectorised division, y_k <- y_k
    r_k, then y_i += V_ik y_k for every i < k.  The leaf's back-substitution
    in pairs.  It reads only the strict upper triangle of V, adds
    nonnegative terms only when V and y are nonnegative, and takes a vector
    y or stacked right-hand sides, one per column."""
    Y = y if len(y.shape) == 2 else y[:, None]  # a view: writes reach y
    r = 1.0 / d
    for k in range(len(d) - 1, -1, -1):
        Y[k] = Y[k] * r[k]
        if k:
            Y[:k] += V[:k, k : k + 1] * Y[k : k + 1]


def _unit_upper_solve(V, d, y):
    """_back_substitute in binary64, in LAPACK's form for the unit upper
    system x_k - sum_{j>k} (V_kj / d_k) x_j = y_k / d_k: y_k <- y_k / d_k for
    every k, then for k = n, ..., 2, y_i += (V_ik / d_i) y_k for every i < k.
    The specification of the compiled leaf's back-substitution.  It too
    reads only the strict upper triangle of V."""
    Y = y if len(y.shape) == 2 else y[:, None]  # a view: writes reach y
    Y /= d[:, None]
    for k in range(len(d) - 1, 0, -1):
        Y[:k] += (V[:k, k] / d[:k])[:, None] * Y[k]


def _solve_in_place(W, offset=0):
    """Overwrite the right-hand-side columns of the augmented W with the solution.

    W is as in _eliminate, n + 1 rows with the column sums last.  Up to
    GTH_BLOCK unknowns, one _eliminate that also solves.  Above it the
    system splits in half, M = [[M1, -N12], [-N21, M2]]: the leading block,
    whose column sums are the sums of the rows below it, 1^T N21 + s1, is
    solved against [N12 | R1] for [X | Y1]; then one product adds N21 X to
    N22, X^T s1 to s2 (row n belongs to W[h:, :h]) and N21 Y1 to R2, the
    trailing block recurses on that Schur complement, and Y1 += X Y2.  Every
    term is a sum of products of nonnegative numbers.  A block's pivots are
    steps offset + 1, offset + 2, ... of the whole system.
    """
    n = W.shape[0] - 1
    if n > GTH_BLOCK:
        h = n // 2
        # row h of W, for the while, is the leading block's sums row
        row = W[h].copy()
        W[h, :h] = W[h:, :h].sum(axis=0)
        _solve_in_place(W[: h + 1], offset)
        W[h] = row
        W[h:, h:] += W[h:, :h] @ W[:h, h:]
        _solve_in_place(W[h:, h:], offset + h)
        W[:h, n:] += W[:h, h:n] @ W[h:n, n:]
        return
    _eliminate(W, offset, solve=True)


def _augmented(offdiag, sums, rhs):
    """The augmented W of the COL triplet (offdiag, sums) with the columns of
    rhs, a vector or a matrix of stacked right-hand sides, and W's view of them."""
    n = offdiag.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    vector = len(rhs.shape) == 1
    W = _zeros(offdiag, (n + 1, n + (1 if vector else rhs.shape[1])))
    W[:n, :n] = offdiag
    W[n, :n] = sums
    y = W[:n, n] if vector else W[:n, n:]
    y[...] = rhs
    return W, y


def gth_col_solve(offdiag, sums, rhs):
    """Solve M y = rhs for the COL triplet (offdiag, sums).

    The solves of the iterations: the sums are the last row and the
    right-hand sides further columns of one augmented array, eliminated in
    one pass, and systems above GTH_BLOCK unknowns are split in blocks (see
    _solve_in_place).  Runs unchanged on float64 ndarrays and on
    precision.DD pair arrays; rhs is a vector or a matrix of stacked
    right-hand sides, and rhs >= 0 gives y >= 0.  The diagonal of offdiag is
    never read.  Raises SingularPivotError if a pivot vanishes.

    y is returned in its own C-ordered memory, not as W's strided view of
    it: a view would keep W alive, and a BLAS product with a strided vector
    can round otherwise than with a contiguous one.
    """
    W, y = _augmented(offdiag, sums, rhs)
    _solve_in_place(W)
    return y.copy()


def _null_profile(offdiag):
    """Null profile t of the zero-row-sum triplet (offdiag, 0) and its pivots.

    t_n = 1 and t_k = sum_{i>k} t_i m_ik with the GTH multipliers
    m_ik = W_ki / d_k of the eliminated W of offdiag^T.  The elimination
    runs with sums e_n: a positive last sum leaves the first n - 1 steps of
    the zero-sum elimination as they are and gives the last step a nonzero
    pivot.  Returns t and the pivots, whose first n - 1 are those of the
    zero-sum triplet.
    """
    n = offdiag.shape[0]
    t = _zeros(offdiag, n)
    t[n - 1] = 1.0  # t_n = 1; as it stands, also the sums e_n
    W, _ = _augmented(offdiag.T, t, _zeros(t, (n, 0)))
    d = _eliminate(W)
    # m row-major, m[i, k] = m_ik: each dot below reads a strided column,
    # which BLAS sums in another order than a contiguous row; the order fixes t's bits
    m = (W[:n, :n] / d[:, None]).T.copy()
    for k in range(n - 2, -1, -1):
        t[k] = t[k + 1 :] @ m[k + 1 :, k]
    return t, d


def gth_partial_inverse(offdiag, sums):
    """(z, S) with M^{-1} = 1 z^T + S for the ROW triplet (offdiag, sums), w = sums.

    The rank-1 part 1 z^T carries the blow-up as M approaches singularity;
    S stays bounded and acts like M^{-1} on zero-sum row vectors.  Runs
    unchanged on float64 ndarrays and on precision.DD pair arrays.  z is
    assembled subtraction-free: the null profile t of L1 = M - diag(w)
    scaled by det(L1 leading minor) / det(M), both read off GTH pivots.  One
    unblocked pass on M^T, the COL triplet (offdiag^T, w), with the identity
    appended gives M's pivots and M^{-T}; S is then M^{-1} - 1 z^T in the
    working arithmetic, accurate in binary64 away from singularity and in
    pair arithmetic much closer to it.
    """
    n = offdiag.shape[0]
    if n == 1:
        return 1.0 / sums, _zeros(sums, (1, 1))
    t, d1 = _null_profile(offdiag)
    W, inv_t = _augmented(offdiag.T, sums, _zeros(sums, (n, n)) + np.eye(n))
    d = _eliminate(W, solve=True)
    scale = 1.0
    for k in range(n - 1):
        scale *= d1[k] / d[k]
    scale /= d[n - 1]
    z = t * scale
    return z, inv_t.T - z[None, :]


def plain_lu_solve(A, b):
    """Partial-pivoting dense solve used by the non-GTH Newton baseline.

    It calls LAPACK's getrf and then getrs through scipy.linalg.lapack, the
    routines scipy.linalg.lu_factor and lu_solve run, on the same arrays, so
    the bits are theirs.  Their outcomes are kept: SingularPivotError for an
    A that is not a finite square matrix or has an exactly zero pivot, with
    scipy's text, and ValueError for a b that is not finite or whose length
    is not A's order.  Pair arrays raise TypeError, as they do on converting
    to an ndarray.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SingularPivotError(f"A must be a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise SingularPivotError("array must not contain infs or NaNs")
    n = len(A)
    if n:  # getrf reports an empty A as an illegal argument
        lu, piv, info = dgetrf(A)
        if info > 0:
            raise SingularPivotError(f"Diagonal number {info} is exactly zero. Singular matrix.")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if b.shape[0] != n:
        raise ValueError(f"Shapes of lu {A.shape} and b {b.shape} are incompatible")
    return dgetrs(lu, piv, b)[0] if n else np.empty(b.shape)
