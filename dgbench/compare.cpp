// Compares two result sets of the benchmark against the bounds in
// BENCHMARK.json:
//
//   dgflow_compare BENCHMARK.json <base-dir> <new-dir>
//
// A result set is a directory of run outputs named <workload>.<seed>.txt
// (the stdout of `sh dgbench/run.sh ...`); the last line of each file is the
// run's result JSON. One row per (end-to-end metric, workload): the median
// of each side, the change, the spread (interquartile range over median, as
// Python's statistics.quantiles gives it) and the verdict:
//
//   regressed   the new median is worse by more than the bound
//   improved    better by more than the spread of either side
//   unchanged   neither
//   unresolved  the spread exceeds the bound, unless every new run is better
//               (improved) or every one is worse by more than the bound
//               (regressed) than every base run
//
// Exits 1 when a row regressed or a run reported correct = false, 2 on bad
// input.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>

#include "json.h"

using namespace dgbench;

namespace
{
/// metric values per workload and metric name
struct ResultSet
{
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::vector<std::string> incorrect; ///< files whose run failed a check
};

ResultSet load(const std::string &dir)
{
  ResultSet set;
  for (const auto &entry : std::filesystem::directory_iterator(dir))
  {
    const std::string file = entry.path().filename().string();
    if (!entry.is_regular_file() || entry.path().extension() != ".txt")
      continue;
    const std::string text = read_file(entry.path().string());
    std::size_t end = text.find_last_not_of("\n\r ");
    if (end == std::string::npos)
      throw std::runtime_error(file + " is empty");
    const std::size_t begin = text.find_last_of('\n', end);
    const Json result = parse_json(
      text.substr(begin == std::string::npos ? 0 : begin + 1));
    const Json *correct = result.find("correct");
    if (correct == nullptr || !correct->boolean)
      set.incorrect.push_back(dir + "/" + file);
    auto &metrics = set.values[file.substr(0, file.find('.'))];
    for (const auto &[name, m] : result.find("metrics")->object)
      metrics[name].push_back(m.find("value")->number);
  }
  return set;
}

/// Quartiles as Python's statistics.quantiles(data, n=4) (exclusive
/// method); a single value is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> d)
{
  std::sort(d.begin(), d.end());
  const long n = long(d.size());
  if (n == 1)
    return {d[0], d[0], d[0]};
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i)
  {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    q[i - 1] = (d[j - 1] * double(4 - delta) + d[j] * double(delta)) / 4.;
  }
  return q;
}

double spread(const std::vector<double> &v)
{
  if (v.size() < 2)
    return std::numeric_limits<double>::infinity();
  const auto q = quartiles(v);
  return (q[2] - q[0]) / q[1];
}
} // namespace

int main(int argc, char **argv)
{
  if (argc != 4)
  {
    std::fprintf(stderr,
                 "usage: dgflow_compare BENCHMARK.json <base-dir> <new-dir>\n");
    return 2;
  }
  try
  {
    const Json spec = parse_json(read_file(argv[1]));
    const ResultSet base = load(argv[2]), next = load(argv[3]);
    bool regressed = false;
    for (const auto *set : {&base, &next})
      for (const std::string &file : set->incorrect)
      {
        std::printf("incorrect run: %s\n", file.c_str());
        regressed = true;
      }

    std::printf("%-14s %-20s %5s %13s %13s %9s %8s %7s  %s\n", "metric",
                "workload", "runs", "base median", "new median", "change",
                "spread", "bound", "verdict");
    for (const Json &metric : spec.find("end_to_end")->array)
    {
      const std::string name = metric.find("name")->string;
      const bool lower = metric.find("better")->string == "lower";
      const double bound = metric.find("bound")->number;
      for (const Json &workload : spec.find("workloads")->array)
      {
        const std::string w = workload.find("name")->string;
        const auto values = [&](const ResultSet &s) {
          const auto it = s.values.find(w);
          if (it == s.values.end() || !it->second.count(name))
            return std::vector<double>{};
          return it->second.at(name);
        };
        const std::vector<double> a = values(base), b = values(next);
        if (a.empty() || b.empty())
        {
          std::printf("%-14s %-20s %5s  missing in one set\n", name.c_str(),
                      w.c_str(), "");
          continue;
        }
        const double ma = quartiles(a)[1], mb = quartiles(b)[1];
        // positive = worse, as a share of the base median
        const double worse = (lower ? mb - ma : ma - mb) / ma;
        const double s = std::max(spread(a), spread(b));
        const auto [amin, amax] = std::minmax_element(a.begin(), a.end());
        const auto [bmin, bmax] = std::minmax_element(b.begin(), b.end());
        const bool all_better = lower ? *bmax < *amin : *bmin > *amax;
        const bool all_worse = lower ? *bmin > *amax : *bmax < *amin;
        const char *verdict = "unchanged";
        if (s > bound)
          verdict = all_better                    ? "improved"
                    : all_worse && worse > bound ? "regressed"
                                                  : "unresolved";
        else if (worse > bound)
          verdict = "regressed";
        else if (-worse > s)
          verdict = "improved";
        regressed = regressed || verdict[0] == 'r';
        std::printf("%-14s %-20s %2zu/%-2zu %13.6g %13.6g %+8.2f%% %7.2f%% "
                    "%6.1f%%  %s\n",
                    name.c_str(), w.c_str(), a.size(), b.size(), ma, mb,
                    100. * (mb - ma) / ma, 100. * s, 100. * bound, verdict);
      }
    }
    return regressed ? 1 : 0;
  }
  catch (const std::exception &e)
  {
    std::fprintf(stderr, "dgflow_compare: %s\n", e.what());
    return 2;
  }
}
