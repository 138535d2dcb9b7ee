// cli.hpp — small declarative command-line parser for examples and benches.
//
// Usage:
//   ArgParser args("quickstart", "Run the symbiotic scheduling quickstart");
//   auto& seed  = args.add_u64("seed", "RNG seed", 42);
//   auto& algo  = args.add_string("algo", "weight|graph|weighted", "weighted");
//   auto& quiet = args.add_flag("quiet", "suppress progress logging");
//   if (!args.parse(argc, argv)) return args.exit_status();  // prints help / error
//
// A program's main hands its body to run_main, so every CLI exits 0 on
// success and on --help, and 2 with a message on any rejected input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace symbiosis::util {

/// Declarative --key=value / --key value / --flag parser.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register options; the returned reference stays valid for the parser's
  /// lifetime and holds the parsed (or default) value after parse().
  std::string& add_string(std::string name, std::string help, std::string default_value);
  std::int64_t& add_i64(std::string name, std::string help, std::int64_t default_value);
  std::uint64_t& add_u64(std::string name, std::string help, std::uint64_t default_value);
  double& add_double(std::string name, std::string help, double default_value);
  /// `--name` sets the flag; `--name=true|1|yes` sets and `--name=false|0|no`
  /// clears it; any other value is malformed.
  bool& add_flag(std::string name, std::string help);
  /// A parsed add_u64 value narrowed to unsigned; a value that does not fit
  /// throws std::out_of_range naming --@p name instead of wrapping.
  static unsigned narrow_unsigned(std::uint64_t value, const std::string& name);

  /// Parse argv. On "--help" prints usage and returns false; on a malformed
  /// or unknown argument prints an error plus usage and returns false.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// The exit status for a parse() that returned false: 0 after --help,
  /// 2 after a rejected argument.
  [[nodiscard]] int exit_status() const noexcept { return help_shown_ ? 0 : 2; }

  /// Positional arguments left over after option parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { String, I64, U64, Double, Flag };
  struct Option {
    std::string name;
    std::string help;
    Kind kind;
    std::string default_text;
    // Owned storage; one of these is active depending on kind.
    std::unique_ptr<std::string> s;
    std::unique_ptr<std::int64_t> i;
    std::unique_ptr<std::uint64_t> u;
    std::unique_ptr<double> d;
    std::unique_ptr<bool> b;
  };

  Option* find(const std::string& name);
  [[nodiscard]] bool assign(Option& opt, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<std::unique_ptr<Option>> options_;
  std::vector<std::string> positional_;
  bool help_shown_ = false;
};

/// Run a command-line program's @p body and return its exit status. Any
/// exception escaping it (an unknown program or allocator name, an invalid
/// configuration) is rejected input: "<program>: <what>" goes to stderr and
/// the status is 2.
int run_main(const char* program, int argc, char** argv, int (*body)(int, char**));

}  // namespace symbiosis::util
