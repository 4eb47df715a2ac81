// The repository benchmark (see README.md). One run = one workload:
//
//   dgflow_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--workdir <dir>] [--reference <file>]
//
// prints a human-readable report and, as its last line, the result JSON
// {"correct", "attempted", "failed", "metrics"}; exits 1 when an output
// check fails. --trace 1 reports the per-layer metrics instead of the
// end-to-end ones and archives spans and the profiler tree under
// <workdir>/trace.
//
//   dgflow_bench --smoke --spec BENCHMARK.json [--workload <name>]
//
// runs every workload of the spec (or the one named) for a few steps or
// solves, untraced and traced, and fails unless every check passes and
// every metric of the spec is emitted with its unit.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "json.h"

using namespace dgbench;

namespace
{
Outcome run(const Options &opt)
{
  const Workload *w = find_workload(opt.workload);
  if (w == nullptr)
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  std::filesystem::create_directories(opt.workdir);
  Outcome out;
  if (w->poisson)
    run_poisson(*w, opt, out);
  else
    run_lung(*w, opt, out);
  for (const std::string &what : out.failed_checks)
    std::printf("CHECK FAILED: %s\n", what.c_str());
  return out;
}

void print_result(const Outcome &out, const bool trace)
{
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  const auto &metrics = trace ? out.per_layer : out.end_to_end;
  bool first = true;
  char value[64];
  for (const auto &[name, m] : metrics)
  {
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

/// Names of the spec metrics the run did not emit with the spec's unit,
/// plus the emitted metrics the spec does not list.
std::vector<std::string>
spec_mismatches(const Json &list, const std::map<std::string, Metric> &got)
{
  std::vector<std::string> bad;
  for (const Json &m : list.array)
  {
    const std::string name = m.find("name")->string;
    const auto it = got.find(name);
    if (it == got.end() || it->second.unit != m.find("unit")->string)
      bad.push_back(name);
  }
  for (const auto &[name, metric] : got)
    if (std::none_of(list.array.begin(), list.array.end(), [&](const Json &m) {
          return m.find("name")->string == name;
        }))
      bad.push_back(name + " (not in the spec)");
  return bad;
}

int smoke(Options opt, const std::string &spec_path)
{
  const Json spec = parse_json(read_file(spec_path));
  opt.smoke = true;
  opt.seconds = 0.;
  bool ok = true;
  for (const Json &entry : spec.find("workloads")->array)
  {
    const std::string name = entry.find("name")->string;
    if (!opt.workload.empty() && name != opt.workload)
      continue;
    for (const bool trace : {false, true})
    {
      Options o = opt;
      o.workload = name;
      o.trace = trace;
      const Outcome out = run(o);
      print_result(out, trace);
      const auto bad = spec_mismatches(
        *spec.find(trace ? "per_layer" : "end_to_end"),
        trace ? out.per_layer : out.end_to_end);
      for (const std::string &b : bad)
        std::printf("SMOKE FAILED: %s %s metric missing or mismatched: %s\n",
                    name.c_str(), trace ? "traced" : "untraced", b.c_str());
      const bool pass = out.correct() && out.attempted > 0 && bad.empty();
      std::printf("smoke %s %s: %s\n", name.c_str(),
                  trace ? "traced" : "untraced", pass ? "ok" : "FAILED");
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const std::string &problem)
{
  std::fprintf(stderr,
               "dgflow_bench: %s\nusage: dgflow_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--reference <file>]\n       dgflow_bench --smoke --spec "
               "<BENCHMARK.json> [--workload <name>]\n",
               problem.c_str());
  std::exit(2);
}
} // namespace

int main(int argc, char **argv)
{
  Options opt;
  bool smoke_mode = false;
  std::string spec;
  for (int i = 1; i < argc; ++i)
  {
    const std::string arg = argv[i];
    if (arg == "--smoke")
    {
      smoke_mode = true;
      continue;
    }
    if (i + 1 >= argc)
      usage("missing value for " + arg);
    const std::string value = argv[++i];
    try
    {
      if (arg == "--workload")
        opt.workload = value;
      else if (arg == "--seed")
        opt.seed = std::stoul(value);
      else if (arg == "--seconds")
        opt.seconds = std::stod(value);
      else if (arg == "--trace")
        opt.trace = std::stoi(value) != 0;
      else if (arg == "--workdir")
        opt.workdir = value;
      else if (arg == "--reference")
        opt.reference = value;
      else if (arg == "--spec")
        spec = value;
      else
        usage("unknown argument " + arg);
    }
    catch (const std::logic_error &)
    {
      usage("bad value '" + value + "' for " + arg);
    }
  }

  try
  {
    if (smoke_mode)
    {
      if (spec.empty())
        usage("--smoke needs --spec");
      return smoke(opt, spec);
    }
    if (opt.workload.empty() || opt.seconds <= 0.)
      usage("--workload and a positive --seconds are required");
    const Outcome out = run(opt);
    print_result(out, opt.trace);
    return out.correct() ? 0 : 1;
  }
  catch (const std::exception &e)
  {
    std::fprintf(stderr, "dgflow_bench: %s\n", e.what());
    return 1;
  }
}
