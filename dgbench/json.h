#pragma once

// Generic JSON values for the benchmark's own files (BENCHMARK.json, the
// result lines, the reference observables), read with the tokenizer of the
// profiler's report parser. Strings without escapes, as in all of them.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "instrumentation/report.h"

namespace dgbench
{
struct Json
{
  enum class Kind
  {
    null,
    boolean,
    number,
    string,
    array,
    object
  };
  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member @p key of an object, nullptr when absent.
  const Json *find(const std::string &key) const
  {
    for (const auto &[k, v] : object)
      if (k == key)
        return &v;
    return nullptr;
  }
};

namespace internal
{
inline Json parse_value(dgflow::prof::internal::JsonParser &p)
{
  Json v;
  const char c = p.peek();
  if (c == '{')
  {
    v.kind = Json::Kind::object;
    p.expect('{');
    if (!p.consume_if('}'))
    {
      do
      {
        std::string key = p.parse_string();
        p.expect(':');
        v.object.emplace_back(std::move(key), parse_value(p));
      } while (p.consume_if(','));
      p.expect('}');
    }
  }
  else if (c == '[')
  {
    v.kind = Json::Kind::array;
    p.expect('[');
    if (!p.consume_if(']'))
    {
      do
        v.array.push_back(parse_value(p));
      while (p.consume_if(','));
      p.expect(']');
    }
  }
  else if (c == '"')
  {
    v.kind = Json::Kind::string;
    v.string = p.parse_string();
  }
  else if (c == 't' || c == 'f' || c == 'n')
  {
    const std::string word = c == 't' ? "true" : c == 'f' ? "false" : "null";
    for (const char w : word)
      p.expect(w);
    v.kind = c == 'n' ? Json::Kind::null : Json::Kind::boolean;
    v.boolean = (c == 't');
  }
  else
  {
    v.kind = Json::Kind::number;
    v.number = p.parse_number();
  }
  return v;
}
} // namespace internal

/// Parses one JSON value; throws std::runtime_error on malformed input.
inline Json parse_json(const std::string &text)
{
  dgflow::prof::internal::JsonParser p(text);
  return internal::parse_value(p);
}

inline std::string read_file(const std::string &path)
{
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

} // namespace dgbench
