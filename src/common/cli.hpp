// Tiny --key=value flag parser for examples and benchmark binaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dvc {

class Cli {
 public:
  /// Throws precondition_error naming the first argument that is not
  /// `--key` or `--key=value`.
  Cli(int argc, char** argv);

  /// The flag's value, or `fallback` if the flag is absent. A value that is
  /// not wholly a number in range throws precondition_error naming the flag.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dvc
