#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dvc {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    // A stray word (`--n 300` spells the value as its own argument) would
    // otherwise be dropped and leave the flag reading as "1".
    if (arg.size() <= 2 || arg.substr(0, 2) != "--" || arg[2] == '=') {
      throw flag_error("unexpected argument '" + std::string(arg) +
                       "': flags are --key or --key=value");
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string_view value =
        eq == std::string_view::npos ? "1" : arg.substr(eq + 1);
    values_[std::string(arg.substr(0, eq))] = std::string(value);
  }
}

namespace {

/// Parses the whole of `text` as a T, or throws flag_error naming the flag:
/// trailing characters, an empty value and an out-of-range or non-finite
/// number are all rejected.
template <typename T>
T parse_number(const std::string& key, const std::string& text, const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw flag_error("--" + key + " expects " + kind + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<std::int64_t>(key, it->second, "an integer");
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<double>(key, it->second, "a finite number");
}

std::string Cli::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

int run_cli(int argc, char** argv, int (*body)(const Cli&)) {
  try {
    const Cli cli(argc, argv);
    return body(cli);
  } catch (const flag_error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace dvc
