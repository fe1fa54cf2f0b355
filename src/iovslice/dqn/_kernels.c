/* Compiled passes of the learner: the dueling network's forward pass, its
 * greedy action and its loss and gradients on numpy's own BLAS, Adam's
 * step over the flat parameter vector, and the prioritized replay's batched
 * sum-tree walks.
 *
 * `kernels.py` builds this file once per source, flags and compiler (a
 * later process loads the cached library) and binds it through ctypes;
 * `DuelingQNetwork`, `Adam.step`, `SumTree` and `PrioritizedReplay` call
 * it, and keep their numpy and memoryview code as the path taken where it
 * cannot be built. Both paths write the same bytes.
 *
 * Why the bytes are the same:
 * - Each element gets the same IEEE-754 double operations, in the same
 *   order, as the Python path: every `+ - * /` and `sqrt` below mirrors one
 *   ufunc pass or one float operation there, and each result rounds to a
 *   double before the next reads it (FLT_EVAL_METHOD, checked below).
 *   Elements never mix, so vectorising a loop changes nothing but speed.
 * - Adam's one pass keeps the new m and v in locals where the Python path
 *   stores them and reads them back. A local holds the double that was
 *   stored, so no value is read back rounded differently.
 * - `-ffp-contract=off` forbids fusing a multiply and an add into one FMA,
 *   which rounds once instead of twice; GCC's default allows it wherever
 *   the target has FMA instructions (aarch64 always, x86-64 under -march).
 * - There is no `-ffast-math` or `-Ofast`: they reassociate sums, drop
 *   NaN and signed-zero rules, and link a start-up file that turns on
 *   flush-to-zero for the whole process, numpy included.
 * - `-fno-math-errno` only lets `sqrt` become the vector instruction instead
 *   of a libm call that may set errno; the result is the same correctly
 *   rounded root. Its argument is a second moment, never negative.
 * The build uses no `-march`, so the library runs on any CPU of the target.
 * Nothing here sets flush-to-zero or denormals-are-zero either: both would
 * change the bytes of subnormal moments, and numpy's with them.
 *
 * Adam's stuck moments. A dead ReLU unit's gradient is exactly zero, so
 * its first moment decays as m * beta1 into the subnormals and stops at a
 * fixed point m = +-k * 2^-1074 (k <= 5 at beta1 = 0.9), where every later
 * step multiplies, scales and divides subnormals, each operation a slow
 * microcode assist on x86. In the default training thousands of moments
 * sit there from about update 17,000 on, and the plain pass took twice as
 * long. For such an element (g = +-0, 1 <= k <= the bound `stuck_moments`
 * finds with this call's beta1, b1t and lr) the plain pass computes
 * mi = m * beta1 + g * c1 = m (the fixed point, plus a signed zero, which
 * leaves a nonzero m as it is) and num = (mi [/ b1t]) * lr = the zero of
 * m's sign (the bound holds only where k's num rounds to +0), so the
 * careful pass writes exactly those two values without computing them; v,
 * den and p - num / den it computes as the plain pass does. Every other
 * element takes the plain pass's operations.
 * The careful pass costs integer tests per element, so it runs only after
 * a pass that raised FE_UNDERFLOW (a moment or its step decaying into the
 * subnormals) or read a stuck element; the caller's flags are restored.
 * A moment still decaying (k above the bound) keeps the slow exact path.
 * Either pass gives the same bytes, so the choice moves only time.
 *
 * The network's passes (`dueling_forward`, `dueling_loss_and_grads`, and
 * `dueling_greedy`, a row's forward pass and numpy's argmax of its Q) are
 * `DuelingQNetwork._forward` and `_backward` with every product handed to
 * the very cblas routine numpy's matmul calls for it, with the same
 * arguments. `kernels.blas` resolves them through numpy's
 * `_multiarray_umath`, which links scipy-openblas64 (ILP64 cblas named
 * `scipy_cblas_*64_`), so the routine, its kernel for this CPU and its
 * thread count are numpy's own. `matmul` below is numpy 2.x's dispatch for
 * float64 (`DOUBLE_matmul`): element strides pick the routine, each
 * operand's flag and its leading dimension. On the network's C-contiguous
 * arrays (B rows, widths din -> dout, last hidden width L, K actions) that
 * gives, when every dimension is at least 2:
 *
 *   product            numpy                 routine, order, flags   dims, leading dims
 *   h @ W              (B,din)@(din,dout)    dgemm RowMajor N N      B dout din, lda din, ldb dout
 *   row @ W            (din,)@(din,dout)     dgemv RowMajor T        din dout, lda dout, inc 1 1
 *   (B = 1 batches take the row's dgemv: numpy's vector @ matrix case)
 *   h @ wv             (B,L)@(L,1)           dgemv ColMajor T        L B, lda L
 *   row @ wv           (L,)@(L,1)            0.0 + ddot(L)           numpy's DOUBLE_dot
 *   h_last.T @ dv      (L,B)@(B,1)           dgemv RowMajor T        B L, lda L
 *   h_last.T @ da      (L,B)@(B,K)           dgemm RowMajor T N      L K B, lda L, ldb K
 *   dv @ wv.T          (B,1)@(1,L)           no BLAS: 0.0 + dv[r] * wv[j]
 *   da @ wa.T          (B,K)@(K,L)           dgemm RowMajor N T      B L K, lda K, ldb K
 *   act.T @ dh         (din,B)@(B,dout)      dgemm RowMajor T N      din dout B, lda din, ldb dout
 *   dh @ W.T           (B,dout)@(dout,din)   dgemm RowMajor N T      B din dout, lda dout, ldb dout
 *
 * alpha is 1.0 and beta 0.0 throughout. A product with an inner dimension
 * of 1 goes to numpy's own loop: each output is 0.0 + its one product.
 * numpy's loop also takes any operand its blasability test refuses, and
 * none here is refused: each is C-contiguous or the transpose of a
 * C-contiguous array. numpy's dgemm-to-dsyrk switch for a matrix times its
 * own transpose never applies: no product here has one buffer on both
 * sides.
 *
 * The reductions follow numpy's order:
 * - a row sum (`a.sum(axis=-1)`, `dq.sum(axis=1)`) and `np.mean` are
 *   `0.0 +` numpy's pairwise sum (`pairwise` below): 8 accumulators over
 *   blocks of up to 128, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
 *   the tail; a longer run splits at n/2 rounded down to a multiple of 8.
 *   `np.mean` then divides by the count.
 * - `np.sum(axis=0)` of a C-contiguous (B, c) array adds row by row from
 *   +0.0 when c > 1; when c == 1 numpy drops that axis and it is the
 *   pairwise row sum over B.
 * The elementwise steps: `np.maximum(t, 0.0)` is t when t > 0 or t is NaN
 * and +0.0 otherwise; `dh *= act > 0` multiplies by 1.0 or 0.0;
 * `np.clip(d, -hd, hd)` is min(max(d, -hd), hd) with numpy's NaN rule;
 * `delta**2` is delta * delta. The Python path also stays the reference of
 * the tests, which compare both paths' bytes on edge inputs.
 * A NaN comes out wherever numpy's does, but its sign and payload bits are
 * not mirrored: which operand's NaN an x86 instruction passes on depends
 * on the operand order a compiler chose. Only a non-finite input makes
 * one, and `train` stops at a non-finite loss before a step reads it.
 */

#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* 2 evaluates doubles in long double (x87), and a negative value leaves it
 * open; 0, 1 and 16 all round each double operation to double */
#if FLT_EVAL_METHOD < 0 || FLT_EVAL_METHOD == 2
#error "double expressions must round to double at every operation"
#endif

#define SIGN_BIT 0x8000000000000000u

static inline uint64_t bits_of(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

static inline double of_bits(uint64_t u)
{
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* 1 where x < s, else 0, for any x and s < 2^63: an unsigned comparison in
 * shifts and masks, which SSE2 vectorises and a compare it lacks would not */
static inline uint64_t below(uint64_t x, uint64_t s)
{
    return ((x - s) & ~x) >> 63;
}

/* Adam's step over n parameters, each read once and written once:
 * m = m * beta1 + g * c1, v = v * beta2 + (g * g) * c2, with c1 and c2 the
 * Python values of 1 - beta1 and 1 - beta2, then
 * p -= (m / b1t) * lr / (sqrt(v / b2t) + eps) from the new m and v. A
 * correction that has rounded to exactly 1.0 is not divided by, as `Adam`
 * says (`divide1`, `divide2`).
 *
 * With `stuck` set it is the same step with stuck first moments read as
 * +0: an element with g = +-0 and m = +-k * 2^-1074, 1 <= k <= stuck. The
 * caller makes `stuck` the `stuck_moments` bound, under which such an m
 * is a fixed point of m * beta1 and its step's num is the zero of m's
 * sign, so the pass writes m back, the signed zero as num, and v and p by
 * the usual formulas: the bytes of the plain pass, without its
 * subnormal operations. The tests are integer ones on the bits (`below`):
 * a floating-point comparison in the loop keeps gcc from vectorising it.
 * Returns the number of elements read as stuck. */
static inline __attribute__((always_inline)) int64_t
adam_pass(double *restrict p, double *restrict m, double *restrict v,
          const double *restrict g, int64_t n, double beta1, double c1,
          double beta2, double c2, double lr, double b1t, double b2t,
          double eps, int divide1, int divide2, uint64_t stuck)
{
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t mb = bits_of(m[i]), keep = 0; /* keep: all ones where stuck */
        if (stuck) {
            keep = -(below(bits_of(g[i]) << 1, 1) & below((mb & ~SIGN_BIT) - 1, stuck));
            count += keep & 1;
        }
        double mi = of_bits(mb & ~keep) * beta1 + g[i] * c1;
        double vi = v[i] * beta2 + (g[i] * g[i]) * c2;
        m[i] = of_bits((bits_of(mi) & ~keep) | (mb & keep));
        v[i] = vi;
        double num = (divide1 ? mi / b1t : mi) * lr;
        num = of_bits((bits_of(num) & ~keep) | (mb & keep & SIGN_BIT));
        double den = sqrt(divide2 ? vi / b2t : vi) + eps;
        p[i] = p[i] - num / den;
    }
    return count;
}

/* The bound of stuck moments at this call's beta1, b1t and lr: the
 * largest k (at most 2^20) such that every m = k' * 2^-1074 with
 * 1 <= k' <= k is a fixed point of m * beta1, found by the FPU, provided
 * that k's step num is +0; else 0, and no moment is read as stuck.
 * Rounding is monotone, so a num that is zero at k is zero below it, and
 * symmetric, so m's sign carries through both. At beta1 = 0.9 it is 5:
 * 0.9 is stored just above 0.9, so 5 * 0.9 rounds up to 5, and 6 * 0.9
 * to 5. */
static uint64_t stuck_moments(double beta1, double lr, double b1t, int divide1)
{
    uint64_t k = 0;
    while (k < (1u << 20) && of_bits(k + 1) * beta1 == of_bits(k + 1))
        k++;
    double top = of_bits(k);
    double num = (divide1 ? top / b1t : top) * lr;
    return bits_of(num) == 0 ? k : 0;
}

/* Adam's step (`adam_pass`), the plain pass or, where `careful` is set and
 * `stuck_moments` finds a bound, the one that reads stuck moments as +0.
 * Returns whether the next call should be careful: whether this pass read
 * an element as stuck or raised FE_UNDERFLOW, which a moment decaying into
 * the subnormals raises. The caller's floating-point flags are left as
 * they were. */
int64_t adam_step(double *p, double *m, double *v, const double *g, int64_t n,
                  double beta1, double c1, double beta2, double c2,
                  double lr, double b1t, double b2t, double eps,
                  int64_t careful)
{
    int d1 = b1t != 1.0, d2 = b2t != 1.0;
    fexcept_t flags;
    fegetexceptflag(&flags, FE_UNDERFLOW);
    uint64_t stuck = careful ? stuck_moments(beta1, lr, b1t, d1) : 0;
    feclearexcept(FE_UNDERFLOW);
    int64_t count;
#define ADAM_PASS(d1, d2, stuck) \
    adam_pass(p, m, v, g, n, beta1, c1, beta2, c2, lr, b1t, b2t, eps, d1, d2, stuck)
    if (stuck)
        count = d1 ? (d2 ? ADAM_PASS(1, 1, stuck) : ADAM_PASS(1, 0, stuck))
                   : (d2 ? ADAM_PASS(0, 1, stuck) : ADAM_PASS(0, 0, stuck));
    else
        count = d1 ? (d2 ? ADAM_PASS(1, 1, 0) : ADAM_PASS(1, 0, 0))
                   : (d2 ? ADAM_PASS(0, 1, 0) : ADAM_PASS(0, 0, 0));
#undef ADAM_PASS
    int underflow = fetestexcept(FE_UNDERFLOW) != 0;
    fesetexceptflag(&flags, FE_UNDERFLOW);
    return count > 0 || underflow;
}

/* For each k: descend the heap-layout tree `nodes` from the root with the
 * prefix u[k] * total, clamp the leaf to `last`, and write the leaf and its
 * stored value. */
void tree_find_many(const double *nodes, int64_t capacity, const double *u,
                    double total, int64_t n, int64_t last,
                    int64_t *leaves, double *values)
{
    const int64_t inner = capacity - 1;
    for (int64_t k = 0; k < n; k++) {
        double prefix = u[k] * total;
        int64_t idx = 0;
        while (idx < inner) {
            int64_t left = 2 * idx + 1;
            if (prefix < nodes[left]) {
                idx = left;
            } else {
                prefix -= nodes[left];
                idx = left + 1;
            }
        }
        int64_t leaf = idx - inner;
        if (leaf > last)
            leaf = last;
        leaves[k] = leaf;
        values[k] = nodes[leaf + inner];
    }
}

/* Set leaves[k] to values[k] for k = 0, 1, ..., adding each change up the
 * leaf's path to the root, in order. Returns -1, or the first k whose leaf
 * lies outside [0, capacity), in which case nothing is written. */
int64_t tree_set_many(double *nodes, int64_t capacity, const int64_t *leaves,
                      const double *values, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        if (leaves[k] < 0 || leaves[k] >= capacity)
            return k;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t idx = leaves[k] + capacity - 1;
        double change = values[k] - nodes[idx];
        nodes[idx] = values[k];
        while (idx > 0) {
            idx = (idx - 1) / 2;
            nodes[idx] += change;
        }
    }
    return -1;
}

/* ---- the dueling network's passes ------------------------------------- */

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 }; /* cblas.h */

#define NOINLINE __attribute__((noinline))

typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *,
                         int64_t);
typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *,
                          int64_t);

static dgemm_fn dgemm;
static dgemv_fn dgemv;
static ddot_fn ddot;

/* Bind numpy's cblas_dgemm, cblas_dgemv and cblas_ddot (ILP64). */
void blas_bind(dgemm_fn gemm, dgemv_fn gemv, ddot_fn dot)
{
    dgemm = gemm;
    dgemv = gemv;
    ddot = dot;
}

/* A network and its buffers, laid out as `kernels.Net` declares them. The
 * buffers hold `rows` rows; the caller fills the inputs of a call's rows. */
struct net {
    int64_t n_hidden;
    const int64_t *dims;  /* obs_dim, the hidden widths, n_actions */
    const double *params; /* W1, b1, ..., Wk, bk, Wv, bv, Wa, ba */
    int64_t rows;
    double *x;            /* rows x obs_dim */
    double *q;            /* rows x n_actions: dueling_forward's Q */
    int64_t *actions;     /* rows each: dueling_loss_and_grads' inputs */
    double *targets;
    double *weights;
    double *abs_delta;    /* rows: its |td error| */
    double loss;          /* its mean loss */
    double *scratch;      /* dueling_scratch_size(net) doubles */
};

/* numpy's is_blasable2d in element strides: unit inner stride, and an outer
 * stride that spans the inner dimension d2. */
static int blasable(int64_t s1, int64_t s2, int64_t d2)
{
    return s2 == 1 && s1 >= d2;
}

/* numpy's gemv: y (m) = a (m x n) @ x (n). */
static void matmul_gemv(const double *a, int64_t am, int64_t an,
                        const double *x, int64_t incx, double *y, int64_t m,
                        int64_t n)
{
    if (blasable(am, an, n))
        dgemv(COL_MAJOR, TRANS, n, m, 1.0, a, am, x, incx, 0.0, y, 1);
    else
        dgemv(ROW_MAJOR, TRANS, n, m, 1.0, a, an, x, incx, 0.0, y, 1);
}

/* c = a @ b into a C-contiguous (m, p) c, as numpy's DOUBLE_matmul computes
 * it for an (m, n) a and an (n, p) b with element strides (am, an) and
 * (bn, bp). Every operand here is a C-contiguous array or the transpose of
 * one, which numpy's blasability test accepts, so the shape alone picks the
 * routine and `blasable` each flag. */
static void matmul(const double *a, int64_t am, int64_t an, const double *b,
                   int64_t bn, int64_t bp, double *c, int64_t m, int64_t n,
                   int64_t p)
{
    if (m == 1 && p == 1) {
        c[0] = 0.0 + ddot(n, a, an, b, bn); /* DOUBLE_dot */
    } else if (n == 1) { /* numpy's own loop, one product per output */
        for (int64_t i = 0; i < m; i++) {
            for (int64_t j = 0; j < p; j++)
                c[i * p + j] = 0.0 + a[i * am] * b[j * bp];
        }
    } else if (m == 1) { /* vector @ matrix */
        matmul_gemv(b, bp, bn, a, an, c, p, n);
    } else if (p == 1) { /* matrix @ vector */
        matmul_gemv(a, am, an, b, bn, c, m, n);
    } else {
        int a_c = blasable(am, an, n), b_c = blasable(bn, bp, p);
        dgemm(ROW_MAJOR, a_c ? NO_TRANS : TRANS, b_c ? NO_TRANS : TRANS, m,
              p, n, 1.0, a, a_c ? am : an, b, b_c ? bn : bp, 0.0, c, p);
    }
}

/* numpy's pairwise sum of n contiguous values. Every caller adds it to
 * +0.0, as numpy's add.reduce does, which also settles the sign of an
 * all-zero run. Kept out of line: inlining its recursion into itself and
 * its callers made its share of the build about three times as long. */
NOINLINE static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* The elementwise loops. Each is kept out of line with `restrict` operands,
 * so the build vectorizes it once and with no overlap checks: copies inlined
 * at every call site made the build about 1.5 times as long. */

/* y[r][j] = y[r][j] + b[j] over a C-contiguous (rows, cols) y. */
NOINLINE static void add_bias(double *restrict y, const double *restrict b,
                              int64_t rows, int64_t cols)
{
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < cols; j++)
            y[r * cols + j] = y[r * cols + j] + b[j];
    }
}

/* numpy's maximum(y, 0.0): y when y > 0 or y is NaN, else +0.0. */
NOINLINE static void relu(double *restrict y, int64_t n)
{
    for (int64_t e = 0; e < n; e++)
        y[e] = (y[e] > 0.0 || isnan(y[e])) ? y[e] : 0.0;
}

/* dh *= act > 0: times 1.0 or 0.0. */
NOINLINE static void relu_grad(double *restrict dh, const double *restrict act,
                               int64_t n)
{
    for (int64_t e = 0; e < n; e++)
        dh[e] = dh[e] * (act[e] > 0.0 ? 1.0 : 0.0);
}

/* y = y + x. */
NOINLINE static void add_into(double *restrict y, const double *restrict x,
                              int64_t n)
{
    for (int64_t e = 0; e < n; e++)
        y[e] = y[e] + x[e];
}

/* q = (v + a) - m: a row of Q = V + A - mean(A), with m = sum(A) / k. */
NOINLINE static void q_row(double *restrict q, const double *restrict a,
                           double v, double m, int64_t n)
{
    for (int64_t e = 0; e < n; e++)
        q[e] = (v + a[e]) - m;
}

/* y = x - m: a row of dA = dQ - sum(dQ) / k. */
NOINLINE static void minus(double *restrict y, const double *restrict x,
                           double m, int64_t n)
{
    for (int64_t e = 0; e < n; e++)
        y[e] = x[e] - m;
}

/* np.sum(a, axis=0) of a C-contiguous (rows, c) array into out. */
NOINLINE static void column_sums(const double *restrict a, int64_t rows,
                                 int64_t c, double *restrict out)
{
    if (c == 1) {
        out[0] = 0.0 + pairwise(a, rows);
        return;
    }
    for (int64_t j = 0; j < c; j++)
        out[j] = 0.0;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < c; j++)
            out[j] += a[r * c + j];
    }
}

/* The sum and the largest of the hidden widths. */
static void hidden_widths(const struct net *n, int64_t *sum, int64_t *widest)
{
    *sum = *widest = 0;
    for (int64_t i = 1; i <= n->n_hidden; i++) {
        *sum += n->dims[i];
        *widest = n->dims[i] > *widest ? n->dims[i] : *widest;
    }
}

/* Doubles of scratch the passes use: every hidden activation, then V and A
 * (where both passes keep them), dQ, dA, dV, the per-row weighted losses,
 * and three rows x widest buffers. */
int64_t dueling_scratch_size(const struct net *n)
{
    int64_t k = n->dims[n->n_hidden + 1], hidden, widest;
    hidden_widths(n, &hidden, &widest);
    return n->rows * (hidden + 3 * k + 3 + 3 * widest);
}

/* The forward pass of `rows` rows of n->x: the hidden activations into
 * `acts` (layer after layer), V into v and A into a. Returns the last
 * hidden activation. */
static const double *forward_pass(const struct net *n, int64_t rows,
                                  double *acts, double *v, double *a)
{
    const int64_t *d = n->dims;
    const double *p = n->params, *h = n->x;
    for (int64_t i = 0; i < n->n_hidden; i++) {
        int64_t din = d[i], dout = d[i + 1];
        matmul(h, din, 1, p, dout, 1, acts, rows, din, dout);
        add_bias(acts, p + din * dout, rows, dout);
        relu(acts, rows * dout);
        p += din * dout + dout;
        h = acts;
        acts += rows * dout;
    }
    int64_t last = d[n->n_hidden], k = d[n->n_hidden + 1];
    const double *wv = p, *bv = wv + last, *wa = bv + 1, *ba = wa + last * k;
    matmul(h, last, 1, wv, 1, 1, v, rows, last, 1);
    add_bias(v, bv, rows, 1);
    matmul(h, last, 1, wa, k, 1, a, rows, last, k);
    add_bias(a, ba, rows, k);
    return h;
}

/* Q = V + A - mean(A) of rows 0..rows-1 of n->x into n->q. */
void dueling_forward(const struct net *n, int64_t rows)
{
    int64_t k = n->dims[n->n_hidden + 1], hidden, widest;
    hidden_widths(n, &hidden, &widest);
    double *v = n->scratch + n->rows * hidden, *a = v + n->rows;
    forward_pass(n, rows, n->scratch, v, a);
    for (int64_t r = 0; r < rows; r++) {
        double s = 0.0 + pairwise(a + r * k, k);
        q_row(n->q + r * k, a + r * k, v[r], s / (double)k, k);
    }
}

/* `dueling_forward` of row 0 of n->x, then numpy's argmax of its Q row
 * (DOUBLE_argmax): the first entry above every earlier one, stopping at the
 * first NaN, so ties go to the lowest index and a NaN wins. */
int64_t dueling_greedy(const struct net *n)
{
    int64_t k = n->dims[n->n_hidden + 1], best = 0;
    dueling_forward(n, 1);
    double top = n->q[0];
    for (int64_t j = 1; j < k && !isnan(top); j++) {
        if (!(n->q[j] <= top)) {
            top = n->q[j];
            best = j;
        }
    }
    return best;
}

static double clip(double x, double lo, double hi) /* numpy's _NPY_CLIP */
{
    double y = isnan(x) ? x : (x > lo ? x : lo);
    return isnan(y) ? y : (y < hi ? y : hi);
}

/* `loss_and_grads` of rows 0..rows-1 of n->x, n->actions, n->targets and
 * n->weights: the mean loss into n->loss, |td error| into n->abs_delta and
 * the gradients into `grads`, laid out as the parameters. Returns -1, or
 * the first row whose action lies outside [0, n_actions), in which case
 * nothing is read or written. */
int64_t dueling_loss_and_grads(struct net *n, int64_t rows,
                               double huber_delta, double *grads)
{
    const int64_t *d = n->dims;
    const int64_t nh = n->n_hidden, last = d[nh], k = d[nh + 1];
    for (int64_t r = 0; r < rows; r++) {
        if (n->actions[r] < 0 || n->actions[r] >= k)
            return r;
    }
    int64_t hidden, wide, cap = n->rows;
    hidden_widths(n, &hidden, &wide);
    double *acts = n->scratch, *v = acts + cap * hidden, *a = v + cap;
    double *dq = a + cap * k, *da = dq + cap * k, *dv = da + cap * k;
    double *losses = dv + cap, *dh = losses + cap, *dh2 = dh + cap * wide;
    double *tmp = dh2 + cap * wide;

    const double *h_last = forward_pass(n, rows, acts, v, a);
    const double batch = (double)rows, half = 0.5 * huber_delta;
    for (int64_t r = 0; r < rows; r++) {
        double s = 0.0 + pairwise(a + r * k, k);
        int64_t act = n->actions[r];
        double q = (v[r] + a[r * k + act]) - s / (double)k;
        double delta = q - n->targets[r];
        double abs_delta = fabs(delta);
        double loss = abs_delta <= huber_delta ? 0.5 * (delta * delta)
                                               : huber_delta * (abs_delta - half);
        losses[r] = n->weights[r] * loss;
        n->abs_delta[r] = abs_delta;
        for (int64_t j = 0; j < k; j++)
            dq[r * k + j] = 0.0;
        dq[r * k + act] = n->weights[r] * clip(delta, -huber_delta, huber_delta) / batch;
    }
    n->loss = (0.0 + pairwise(losses, rows)) / batch;

    /* _backward: the heads, then the hidden layers from the last */
    for (int64_t r = 0; r < rows; r++) {
        dv[r] = 0.0 + pairwise(dq + r * k, k);
        minus(da + r * k, dq + r * k, dv[r] / (double)k, k);
    }
    double *g = grads;
    for (int64_t i = 0; i < nh; i++)
        g += d[i] * d[i + 1] + d[i + 1];
    double *gwv = g, *gbv = gwv + last, *gwa = gbv + 1, *gba = gwa + last * k;
    const double *wv = n->params + (gwv - grads), *wa = n->params + (gwa - grads);
    matmul(h_last, 1, last, dv, 1, 1, gwv, last, rows, 1);
    column_sums(dv, rows, 1, gbv);
    matmul(h_last, 1, last, da, k, 1, gwa, last, rows, k);
    column_sums(da, rows, k, gba);
    matmul(dv, 1, 1, wv, 1, 1, dh, rows, 1, last);
    matmul(da, k, 1, wa, 1, k, tmp, rows, k, last);
    add_into(dh, tmp, rows * last);
    for (int64_t i = nh - 1; i >= 0; i--) {
        int64_t din = d[i], dout = d[i + 1];
        const double *act_in = n->x, *act_out = acts; /* h_i and h_(i+1) */
        for (int64_t l = 1; l <= i; l++) {
            act_in = act_out;
            act_out += rows * d[l];
        }
        g -= din * dout + dout;
        relu_grad(dh, act_out, rows * dout);
        column_sums(dh, rows, dout, g + din * dout);
        matmul(act_in, 1, din, dh, dout, 1, g, din, rows, dout);
        if (i > 0) {
            matmul(dh, dout, 1, n->params + (g - grads), 1, dout, dh2, rows, dout, din);
            double *swap = dh;
            dh = dh2;
            dh2 = swap;
        }
    }
    return -1;
}
