/* Compiled passes of the learner: Adam's step over the flat parameter vector
 * and the prioritized replay's batched sum-tree walks.
 *
 * `kernels.py` builds this file once per process and binds it through
 * ctypes; `Adam.step`, `SumTree` and `PrioritizedReplay` call it, and keep
 * their numpy and memoryview code as the path taken where it cannot be
 * built. Both paths write the same bytes.
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
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

/* 2 evaluates doubles in long double (x87), and a negative value leaves it
 * open; 0, 1 and 16 all round each double operation to double */
#if FLT_EVAL_METHOD < 0 || FLT_EVAL_METHOD == 2
#error "double expressions must round to double at every operation"
#endif

/* One Adam step over n parameters, each read once and written once:
 * m = m * beta1 + g * c1, v = v * beta2 + (g * g) * c2, with c1 and c2 the
 * Python values of 1 - beta1 and 1 - beta2, then
 * p -= (m / b1t) * lr / (sqrt(v / b2t) + eps) from the new m and v. A
 * correction that has rounded to exactly 1.0 is not divided by, as `Adam`
 * says. */
void adam_step(double *p, double *m, double *v, const double *g, int64_t n,
               double beta1, double c1, double beta2, double c2,
               double lr, double b1t, double b2t, double eps)
{
    for (int64_t i = 0; i < n; i++) {
        double mi = m[i] * beta1 + g[i] * c1;
        double vi = v[i] * beta2 + (g[i] * g[i]) * c2;
        m[i] = mi;
        v[i] = vi;
        double num = (b1t == 1.0 ? mi : mi / b1t) * lr;
        double den = sqrt(b2t == 1.0 ? vi : vi / b2t) + eps;
        p[i] = p[i] - num / den;
    }
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
