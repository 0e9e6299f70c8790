/**
 * @file
 * Dense linear algebra reference implementations.
 *
 * These play the role of the vendor BLAS libraries the paper targets
 * (MKL, cuBLAS, clBLAS, CLBlast) in examples/gemm_two_styles, the
 * paper's Figure 15. A transformed module's GEMM calls do not reach
 * this library: transform/binder.cpp runs them in its own loop over
 * the interpreter's checked Memory.
 */
#ifndef RUNTIME_BLAS_H
#define RUNTIME_BLAS_H

#include <cstdint>

namespace repro::runtime::blas {

/**
 * Generalized matrix multiply over strided storage:
 *
 *   C[i0*c0 + i1*c1] = beta * C[...] + alpha *
 *       sum_k A[i0*a0 + k*a2] * B[i1*b1 + k*b2]
 *
 * for i0 in [0,m), i1 in [0,n), k in [0,kk). The six element strides
 * express row/column major layouts and transposed operands, matching
 * what MatrixRead/MatrixStore solutions provide.
 */
void gemm(double *c, int64_t c0, int64_t c1, const double *a,
          int64_t a0, int64_t a2, const double *b, int64_t b1,
          int64_t b2, int64_t m, int64_t n, int64_t kk, double alpha,
          double beta);

/** Single-precision gemm() (the cblas_sgemm analogue). */
void sgemm(float *c, int64_t c0, int64_t c1, const float *a,
           int64_t a0, int64_t a2, const float *b, int64_t b1,
           int64_t b2, int64_t m, int64_t n, int64_t kk, float alpha,
           float beta);

/** y = alpha*A*x + beta*y with row stride lda. */
void gemv(double *y, const double *a, int64_t lda, const double *x,
          int64_t m, int64_t n, double alpha, double beta);

/** Dot product. */
double dot(const double *x, const double *y, int64_t n);

/** y = a*x + y. */
void axpy(double *y, const double *x, double a, int64_t n);

} // namespace repro::runtime::blas

#endif // RUNTIME_BLAS_H
