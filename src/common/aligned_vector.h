#pragma once

// A std::vector-like container with 64-byte aligned storage, suitable for
// SIMD loads/stores of VectorizedArray elements. Unlike std::vector it does
// not value-initialize on resize of trivially-constructible types, which
// matters for large solution vectors (first-touch cost).

#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dgflow
{
template <typename T>
class AlignedVector
{
  static_assert(std::is_trivially_copyable_v<T> ||
                  std::is_nothrow_move_constructible_v<T>,
                "AlignedVector requires trivially copyable or nothrow "
                "movable types");

public:
  static constexpr std::size_t alignment = 64;

  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  AlignedVector() = default;

  explicit AlignedVector(const std::size_t n) { resize(n); }

  AlignedVector(const std::size_t n, const T &init) { resize(n, init); }

  AlignedVector(const AlignedVector &other) { *this = other; }

  AlignedVector(AlignedVector &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0))
  {}

  AlignedVector &operator=(const AlignedVector &other)
  {
    if (this == &other)
      return *this;
    resize_without_init(other.size_);
    if constexpr (std::is_trivially_copyable_v<T>)
    {
      if (size_ > 0) // memcpy from an empty vector's null data_ is UB
        std::memcpy(static_cast<void *>(data_), other.data_, size_ * sizeof(T));
    }
    else
      for (std::size_t i = 0; i < size_; ++i)
        data_[i] = other.data_[i];
    return *this;
  }

  AlignedVector &operator=(AlignedVector &&other) noexcept
  {
    if (this == &other)
      return *this;
    destroy();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  ~AlignedVector() { destroy(); }

  void clear()
  {
    destroy();
    data_ = nullptr;
    size_ = capacity_ = 0;
  }

  /// Resize; new elements of non-trivial types are default-constructed, and
  /// of trivial types left uninitialized.
  void resize_without_init(const std::size_t n)
  {
    if (n > capacity_)
      reallocate(n);
    if constexpr (!std::is_trivially_default_constructible_v<T>)
      for (std::size_t i = size_; i < n; ++i)
        new (data_ + i) T();
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (std::size_t i = n; i < size_; ++i)
        data_[i].~T();
    size_ = n;
  }

  void resize(const std::size_t n) { resize(n, T()); }

  void resize(const std::size_t n, const T &init)
  {
    const std::size_t old_size = size_;
    resize_without_init(n);
    if constexpr (std::is_trivially_default_constructible_v<T>)
      for (std::size_t i = old_size; i < n; ++i)
        data_[i] = init;
    else if (!(init == T()))
      for (std::size_t i = old_size; i < n; ++i)
        data_[i] = init;
  }

  /// Resize to @p n elements and set every element (old and new) to
  /// @p value. Unlike resize(n, value), which only initializes elements
  /// beyond the old size, this guarantees no stale state survives a
  /// same-size or shrinking resize.
  void assign(const std::size_t n, const T &value)
  {
    resize_without_init(n);
    fill(value);
  }

  void reserve(const std::size_t n)
  {
    if (n > capacity_)
      reallocate(n);
  }

  void push_back(const T &v)
  {
    if (size_ == capacity_)
      reallocate(capacity_ == 0 ? 16 : 2 * capacity_);
    new (data_ + size_) T(v);
    ++size_;
  }

  void fill(const T &v)
  {
    for (std::size_t i = 0; i < size_; ++i)
      data_[i] = v;
  }

  T &operator[](const std::size_t i) { return data_[i]; }
  const T &operator[](const std::size_t i) const { return data_[i]; }

  T *data() { return data_; }
  const T *data() const { return data_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  std::size_t memory_consumption() const { return capacity_ * sizeof(T); }

private:
  void reallocate(const std::size_t new_capacity)
  {
    // new_capacity * sizeof(T) must not wrap into a small allocation
    if (new_capacity > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    T *new_data = static_cast<T *>(
      ::operator new(new_capacity * sizeof(T), std::align_val_t(alignment)));
    if constexpr (std::is_trivially_copyable_v<T>)
    {
      if (size_ > 0)
        std::memcpy(static_cast<void *>(new_data), data_, size_ * sizeof(T));
    }
    else
      for (std::size_t i = 0; i < size_; ++i)
      {
        new (new_data + i) T(std::move(data_[i]));
        data_[i].~T();
      }
    if (data_ != nullptr)
      ::operator delete(data_, std::align_val_t(alignment));
    data_ = new_data;
    capacity_ = new_capacity;
  }

  void destroy()
  {
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (std::size_t i = 0; i < size_; ++i)
        data_[i].~T();
    if (data_ != nullptr)
      ::operator delete(data_, std::align_val_t(alignment));
  }

  T *data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

} // namespace dgflow
