// Tiny --key=value flag parser for examples and benchmark binaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/check.hpp"

namespace dvc {

/// A malformed command-line flag. Its message is one line naming the
/// offending argument or flag, fit to print as a usage error.
class flag_error : public precondition_error {
 public:
  using precondition_error::precondition_error;
};

class Cli {
 public:
  /// Throws flag_error naming the first argument that is not `--key` or
  /// `--key=value`.
  Cli(int argc, char** argv);

  /// The flag's value, or `fallback` if the flag is absent. A value that is
  /// not wholly a number in range throws flag_error naming the flag.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Runs a binary's `body` on its parsed flags and returns its exit status.
/// A flag_error -- from parsing, or from a getter inside `body` -- prints
/// "error: <message>" on stderr and returns 2.
int run_cli(int argc, char** argv, int (*body)(const Cli&));

}  // namespace dvc
