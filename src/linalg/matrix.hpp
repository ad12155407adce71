#pragma once
// Dense linear algebra kernel used by the interior-point SDP solver.
// Row-major double matrices; sizes in this library are small-to-medium
// (Gram blocks up to a few hundred, Schur complements up to a few thousand),
// so a straightforward dense implementation is appropriate.
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace soslock::linalg {

using Vector = std::vector<double>;

/// Minimal 64-byte-aligned allocator for matrix storage: one cache line and
/// the widest vector register (AVX-512) share that bound, so the SIMD
/// kernels' loads never split cache lines and aligned stores are legal on
/// row 0 regardless of what the default allocator felt like returning.
template <class T>
struct AlignedAlloc {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAlloc() = default;
  template <class U>
  AlignedAlloc(const AlignedAlloc<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(kAlignment));
  }
  template <class U>
  bool operator==(const AlignedAlloc<U>&) const {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAlloc<U>&) const {
    return false;
  }
};

/// Contiguous 64-byte-aligned double storage (Matrix backing store).
using AlignedVector = std::vector<double, AlignedAlloc<double>>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    assert(data_.empty() ||
           reinterpret_cast<std::uintptr_t>(data_.data()) % AlignedAlloc<double>::kAlignment == 0);
  }

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from vector.
  static Matrix diag(const Vector& d);
  /// Build from an initializer-style nested vector (row-major).
  static Matrix from_rows(const std::vector<Vector>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix transposed() const;
  /// Symmetrize in place: A <- (A + A^T)/2. Requires square.
  void symmetrize();
  void fill(double value);
  void scale(double s);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  /// A += s * B
  void axpy(double s, const Matrix& b);

  std::string str(int precision = 4) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  AlignedVector data_;
};

// --- Matrix/vector algebra -------------------------------------------------

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(double s, Matrix a);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);

/// y = A^T x
Vector transposed_times(const Matrix& a, const Vector& x);
/// C = A^T * B
Matrix transposed_times(const Matrix& a, const Matrix& b);
/// C = A * B^T
Matrix times_transposed(const Matrix& a, const Matrix& b);
/// C -= W^T W for W (k x n), C (n x n) symmetric: computes the upper
/// triangle only and mirrors — the syrk shape (half the GEMM flops) that
/// keeps the backends' overlap-multiplier block elimination flop-neutral
/// with factoring the extended system.
void subtract_gram(Matrix& c, const Matrix& w);

/// Frobenius inner product <A, B> = sum_ij A_ij B_ij.
double dot(const Matrix& a, const Matrix& b);
double dot(const Vector& a, const Vector& b);

double norm2(const Vector& v);
double norm_inf(const Vector& v);
double frobenius_norm(const Matrix& a);
/// max_ij |A_ij|
double norm_inf(const Matrix& a);

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(double s, Vector a);
/// y += s * x
void axpy(double s, const Vector& x, Vector& y);

/// Maximum |a_i - b_i|; vectors must be the same length.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace soslock::linalg
