#pragma once

// In-memory span recorder of the traced benchmark runs. A span is one call
// into a layer: name ("<layer>.<what>"), parent span, start and end on the
// steady clock, and the index of the step or solve it belongs to (the id
// the spans of one operation share). Spans are kept in memory and written
// as JSON lines when the run ends; the summary prints every span's self
// time (its duration minus what its children cover) grouped under the root
// operation, with the root's own self time as "unattributed".

#include <iosfwd>
#include <string>
#include <vector>

namespace dgbench
{
class Trace
{
public:
  struct Span
  {
    int parent = -1;
    std::string name;
    double t0 = 0., t1 = 0.;
    long op = 0;
  };

  /// Seconds on the steady clock since the first call in this process.
  static double now();

  void enable(const bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Records a finished span; returns its id (-1 when tracing is off).
  int record(const std::string &name, int parent, long op, double t0,
             double t1);
  /// Starts a span now; close() sets its end.
  int open(const std::string &name, int parent, long op);
  void close(int id);

  const std::vector<Span> &spans() const { return spans_; }

  /// One JSON object per line: id, parent, name, t0, t1, op.
  void write_jsonl(const std::string &path) const;

  /// Per root-span name: count and total of the roots, then count, total
  /// and self time of every span name below them, the unattributed rest,
  /// and the check that self times plus unattributed equal the root total.
  void print_summary(std::ostream &os) const;

private:
  bool on_ = false;
  std::vector<Span> spans_;
};

} // namespace dgbench
