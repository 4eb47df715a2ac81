#pragma once

// Small fixed-size tensors over an arbitrary scalar type (double, float, or
// VectorizedArray) used at quadrature points: 3-vectors and 3x3 matrices.

#include <array>
#include <cmath>

#include "common/types.h"

namespace dgflow
{
template <typename T>
struct Tensor1
{
  T v[dim];

  Tensor1() : v{T(0), T(0), T(0)} {}
  Tensor1(const T &x, const T &y, const T &z) : v{x, y, z} {}

  T &operator[](const unsigned int i) { return v[i]; }
  const T &operator[](const unsigned int i) const { return v[i]; }

  Tensor1 &operator+=(const Tensor1 &o)
  {
    for (unsigned int i = 0; i < dim; ++i)
      v[i] += o.v[i];
    return *this;
  }
  Tensor1 &operator-=(const Tensor1 &o)
  {
    for (unsigned int i = 0; i < dim; ++i)
      v[i] -= o.v[i];
    return *this;
  }
  Tensor1 &operator*=(const T &s)
  {
    for (unsigned int i = 0; i < dim; ++i)
      v[i] *= s;
    return *this;
  }
};

template <typename T>
inline Tensor1<T> operator+(Tensor1<T> a, const Tensor1<T> &b)
{
  return a += b;
}
template <typename T>
inline Tensor1<T> operator-(Tensor1<T> a, const Tensor1<T> &b)
{
  return a -= b;
}
template <typename T, typename S>
inline Tensor1<T> operator*(const S &s, Tensor1<T> a)
{
  for (unsigned int i = 0; i < dim; ++i)
    a[i] = T(s) * a[i];
  return a;
}
template <typename T, typename S>
inline Tensor1<T> operator*(Tensor1<T> a, const S &s)
{
  return T(s) * a;
}
template <typename T>
inline Tensor1<T> operator-(const Tensor1<T> &a)
{
  return Tensor1<T>(-a[0], -a[1], -a[2]);
}

template <typename T>
inline T dot(const Tensor1<T> &a, const Tensor1<T> &b)
{
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

template <typename T>
inline Tensor1<T> cross(const Tensor1<T> &a, const Tensor1<T> &b)
{
  return Tensor1<T>(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0]);
}

/// 3x3 second-order tensor, row-major: v[i][j] = dA_i/dx_j convention.
template <typename T>
struct Tensor2
{
  T v[dim][dim];

  Tensor2()
  {
    for (unsigned int i = 0; i < dim; ++i)
      for (unsigned int j = 0; j < dim; ++j)
        v[i][j] = T(0);
  }

  T *operator[](const unsigned int i) { return v[i]; }
  const T *operator[](const unsigned int i) const { return v[i]; }

  Tensor2 &operator+=(const Tensor2 &o)
  {
    for (unsigned int i = 0; i < dim; ++i)
      for (unsigned int j = 0; j < dim; ++j)
        v[i][j] += o.v[i][j];
    return *this;
  }
};

template <typename T, typename S>
inline Tensor2<T> operator*(const S &s, Tensor2<T> a)
{
  for (unsigned int i = 0; i < dim; ++i)
    for (unsigned int j = 0; j < dim; ++j)
      a[i][j] = T(s) * a[i][j];
  return a;
}

/// Matrix-vector product A x.
template <typename T>
inline Tensor1<T> apply(const Tensor2<T> &A, const Tensor1<T> &x)
{
  Tensor1<T> y;
  for (unsigned int i = 0; i < dim; ++i)
    y[i] = A[i][0] * x[0] + A[i][1] * x[1] + A[i][2] * x[2];
  return y;
}

/// Transposed matrix-vector product A^T x.
template <typename T>
inline Tensor1<T> apply_transpose(const Tensor2<T> &A, const Tensor1<T> &x)
{
  Tensor1<T> y;
  for (unsigned int i = 0; i < dim; ++i)
    y[i] = A[0][i] * x[0] + A[1][i] * x[1] + A[2][i] * x[2];
  return y;
}

template <typename T>
inline T determinant(const Tensor2<T> &A)
{
  return A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1]) -
         A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0]) +
         A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]);
}

template <typename T>
inline Tensor2<T> invert(const Tensor2<T> &A)
{
  const T det = determinant(A);
  const T inv_det = T(1.) / det;
  Tensor2<T> B;
  B[0][0] = (A[1][1] * A[2][2] - A[1][2] * A[2][1]) * inv_det;
  B[0][1] = (A[0][2] * A[2][1] - A[0][1] * A[2][2]) * inv_det;
  B[0][2] = (A[0][1] * A[1][2] - A[0][2] * A[1][1]) * inv_det;
  B[1][0] = (A[1][2] * A[2][0] - A[1][0] * A[2][2]) * inv_det;
  B[1][1] = (A[0][0] * A[2][2] - A[0][2] * A[2][0]) * inv_det;
  B[1][2] = (A[0][2] * A[1][0] - A[0][0] * A[1][2]) * inv_det;
  B[2][0] = (A[1][0] * A[2][1] - A[1][1] * A[2][0]) * inv_det;
  B[2][1] = (A[0][1] * A[2][0] - A[0][0] * A[2][1]) * inv_det;
  B[2][2] = (A[0][0] * A[1][1] - A[0][1] * A[1][0]) * inv_det;
  return B;
}

template <typename T>
inline Tensor2<T> transpose(const Tensor2<T> &A)
{
  Tensor2<T> B;
  for (unsigned int i = 0; i < dim; ++i)
    for (unsigned int j = 0; j < dim; ++j)
      B[i][j] = A[j][i];
  return B;
}

/// Simple double-precision point type for mesh geometry.
using Point = Tensor1<double>;

inline double norm(const Point &p) { return std::sqrt(dot(p, p)); }

inline Point normalize(const Point &p)
{
  const double n = norm(p);
  return Point(p[0] / n, p[1] / n, p[2] / n);
}

} // namespace dgflow
