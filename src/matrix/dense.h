/**
 * @file
 * Row-major dense matrix of floats.
 *
 * Used for the dense operand B and output C of SpMM (C = A * B), for
 * GNN feature/weight matrices, and as the uncompressed staging format
 * that Flash-LLM-style conversion requires.
 */
#ifndef DTC_MATRIX_DENSE_H
#define DTC_MATRIX_DENSE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"

namespace dtc {

class Rng;

/** A row-major dense float matrix. */
class DenseMatrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    DenseMatrix() = default;

    /** Creates a zero-initialized @p rows x @p cols matrix. */
    DenseMatrix(int64_t rows, int64_t cols);

    /**
     * Creates a @p rows x @p cols matrix whose elements are left
     * unwritten, for a buffer the caller overwrites in full anyway
     * (a kernel's C, a packed batch operand): it skips the serial
     * zero-fill of the constructor above.
     */
    static DenseMatrix uninitialized(int64_t rows, int64_t cols);

    /** Number of rows. */
    int64_t rows() const { return nRows; }

    /** Number of columns. */
    int64_t cols() const { return nCols; }

    /** Element access. */
    float& at(int64_t r, int64_t c) { return buf[r * nCols + c]; }
    float at(int64_t r, int64_t c) const { return buf[r * nCols + c]; }

    /** Pointer to the start of row @p r. */
    float* row(int64_t r) { return buf.data() + r * nCols; }
    const float* row(int64_t r) const { return buf.data() + r * nCols; }

    /** Raw storage access. */
    float* data() { return buf.data(); }
    const float* data() const { return buf.data(); }
    size_t size() const { return buf.size(); }

    /** Sets every element to zero. */
    void setZero();

    /** Sets every element to @p v. */
    void fill(float v);

    /** Fills with uniform random values in [lo, hi). */
    void fillRandom(Rng& rng, float lo = -1.0f, float hi = 1.0f);

    /** Returns the maximum absolute elementwise difference vs @p other. */
    double maxAbsDiff(const DenseMatrix& other) const;

    /** Returns the Frobenius norm. */
    double frobeniusNorm() const;

    /** Returns the transposed matrix. */
    DenseMatrix transposed() const;

    /** Elementwise equality of shape and contents. */
    bool operator==(const DenseMatrix& other) const;

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;
    /** 64-byte-aligned so SIMD micro-kernels see aligned row bases
     * whenever nCols is a multiple of 16; resize() leaves new
     * elements unwritten (see uninitialized()). */
    std::vector<float, DefaultInitAllocator<float>> buf;
};

} // namespace dtc

#endif // DTC_MATRIX_DENSE_H
