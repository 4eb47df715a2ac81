#pragma once

// Wall-clock stopwatch on the steady clock.

#include <chrono>

namespace dgflow
{
class Timer
{
public:
  Timer() { restart(); }

  void restart() { start_ = clock::now(); }

  /// Seconds since construction or last restart().
  double seconds() const
  {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

} // namespace dgflow
