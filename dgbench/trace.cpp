#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

namespace dgbench
{
double Trace::now()
{
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

int Trace::record(const std::string &name, const int parent, const long op,
                  const double t0, const double t1)
{
  if (!on_)
    return -1;
  spans_.push_back(Span{parent, name, t0, t1, op});
  return int(spans_.size()) - 1;
}

int Trace::open(const std::string &name, const int parent, const long op)
{
  const double t = now();
  return record(name, parent, op, t, t);
}

void Trace::close(const int id)
{
  if (id >= 0)
    spans_[id].t1 = now();
}

void Trace::write_jsonl(const std::string &path) const
{
  std::ofstream out(path);
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    const Span &s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"t0\": %.9f, \"t1\": %.9f, \"op\": %ld}\n",
                  i, s.parent, s.name.c_str(), s.t0, s.t1, s.op);
    out << line;
  }
}

void Trace::print_summary(std::ostream &os) const
{
  // children cover: sum of child durations per span
  std::vector<double> covered(spans_.size(), 0.);
  std::vector<int> root(spans_.size(), -1);
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    const Span &s = spans_[i];
    if (s.parent >= 0)
    {
      covered[s.parent] += s.t1 - s.t0;
      root[i] = root[s.parent];
    }
    else
      root[i] = int(i);
  }

  struct Row
  {
    unsigned long count = 0;
    double total = 0., self = 0.;
  };
  // root name -> (span name -> row); the root's own row holds unattributed
  std::map<std::string, std::map<std::string, Row>> groups;
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    const Span &s = spans_[i];
    Row &row = groups[spans_[root[i]].name][s.name];
    ++row.count;
    row.total += s.t1 - s.t0;
    row.self += s.t1 - s.t0 - covered[i];
  }

  char line[256];
  for (const auto &[root_name, rows] : groups)
  {
    const Row &top = rows.at(root_name);
    std::snprintf(line, sizeof(line),
                  "\nspans under %s (%lu operations, %.6f s)\n", root_name.c_str(),
                  top.count, top.total);
    os << line;
    std::snprintf(line, sizeof(line), "  %-34s %9s %13s %13s\n", "span",
                  "count", "total [s]", "self [s]");
    os << line;
    double sum = 0.;
    for (const auto &[name, row] : rows)
    {
      if (name == root_name)
        continue;
      std::snprintf(line, sizeof(line), "  %-34s %9lu %13.6f %13.6f\n",
                    name.c_str(), row.count, row.total, row.self);
      os << line;
      sum += row.self;
    }
    std::snprintf(line, sizeof(line), "  %-34s %9s %13s %13.6f\n",
                  "unattributed", "", "", top.self);
    os << line;
    std::snprintf(line, sizeof(line),
                  "  self times + unattributed = %.6f s of %.6f s in %s\n",
                  sum + top.self, top.total, root_name.c_str());
    os << line;
  }
}

} // namespace dgbench
