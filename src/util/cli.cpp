#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <sstream>

#include "util/log.hpp"

namespace symbiosis::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

std::string& ArgParser::add_string(std::string name, std::string help, std::string default_value) {
  auto opt = std::make_unique<Option>();
  opt->name = std::move(name);
  opt->help = std::move(help);
  opt->kind = Kind::String;
  opt->default_text = default_value;
  opt->s = std::make_unique<std::string>(std::move(default_value));
  auto& ref = *opt->s;
  options_.push_back(std::move(opt));
  return ref;
}

std::int64_t& ArgParser::add_i64(std::string name, std::string help, std::int64_t default_value) {
  auto opt = std::make_unique<Option>();
  opt->name = std::move(name);
  opt->help = std::move(help);
  opt->kind = Kind::I64;
  opt->default_text = std::to_string(default_value);
  opt->i = std::make_unique<std::int64_t>(default_value);
  auto& ref = *opt->i;
  options_.push_back(std::move(opt));
  return ref;
}

std::uint64_t& ArgParser::add_u64(std::string name, std::string help, std::uint64_t default_value) {
  auto opt = std::make_unique<Option>();
  opt->name = std::move(name);
  opt->help = std::move(help);
  opt->kind = Kind::U64;
  opt->default_text = std::to_string(default_value);
  opt->u = std::make_unique<std::uint64_t>(default_value);
  auto& ref = *opt->u;
  options_.push_back(std::move(opt));
  return ref;
}

double& ArgParser::add_double(std::string name, std::string help, double default_value) {
  auto opt = std::make_unique<Option>();
  opt->name = std::move(name);
  opt->help = std::move(help);
  opt->kind = Kind::Double;
  opt->default_text = std::to_string(default_value);
  opt->d = std::make_unique<double>(default_value);
  auto& ref = *opt->d;
  options_.push_back(std::move(opt));
  return ref;
}

bool& ArgParser::add_flag(std::string name, std::string help) {
  auto opt = std::make_unique<Option>();
  opt->name = std::move(name);
  opt->help = std::move(help);
  opt->kind = Kind::Flag;
  opt->default_text = "false";
  opt->b = std::make_unique<bool>(false);
  auto& ref = *opt->b;
  options_.push_back(std::move(opt));
  return ref;
}

unsigned ArgParser::narrow_unsigned(std::uint64_t value, const std::string& name) {
  if (value > std::numeric_limits<unsigned>::max()) {
    throw std::out_of_range("--" + name + " " + std::to_string(value) + " is out of range");
  }
  return static_cast<unsigned>(value);
}

ArgParser::Option* ArgParser::find(const std::string& name) {
  for (auto& opt : options_) {
    if (opt->name == name) return opt.get();
  }
  return nullptr;
}

bool ArgParser::assign(Option& opt, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  switch (opt.kind) {
    case Kind::String:
      *opt.s = value;
      return true;
    case Kind::I64:
      *opt.i = std::strtoll(value.c_str(), &end, 0);
      break;
    case Kind::U64:
      // strtoull would wrap "-1" to 2^64-1; an unsigned option takes no sign.
      if (value.find('-') == std::string::npos) *opt.u = std::strtoull(value.c_str(), &end, 0);
      break;
    case Kind::Double:
      *opt.d = std::strtod(value.c_str(), &end);
      break;
    case Kind::Flag: {
      const bool on = value == "true" || value == "1" || value == "yes";
      if (!on && value != "false" && value != "0" && value != "no") break;  // bad value below
      *opt.b = on;
      return true;
    }
  }
  if (end == nullptr || end == value.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: bad value '%s' for --%s\n", program_.c_str(), value.c_str(),
                 opt.name.c_str());
    return false;
  }
  return true;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  // Every CLI honours SYMBIOSIS_LOG=trace|debug|info|warn|error|off.
  init_log_from_env();
  for (int idx = 1; idx < argc; ++idx) {
    std::string arg = argv[idx];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      help_shown_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    Option* opt = find(arg);
    if (!opt) {
      std::fprintf(stderr, "%s: unknown option --%s\n\n%s", program_.c_str(), arg.c_str(),
                   usage().c_str());
      return false;
    }
    if (opt->kind == Kind::Flag && !has_value) {
      *opt->b = true;
      continue;
    }
    if (!has_value) {
      if (idx + 1 >= argc) {
        std::fprintf(stderr, "%s: --%s expects a value\n", program_.c_str(), arg.c_str());
        return false;
      }
      value = argv[++idx];
    }
    if (!assign(*opt, value)) return false;
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& opt : options_) {
    os << "  --" << opt->name;
    if (opt->kind != Kind::Flag) os << " <value>";
    os << "\n      " << opt->help << " (default: " << opt->default_text << ")\n";
  }
  os << "  --help\n      Show this message\n";
  return os.str();
}

int run_main(const char* program, int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    return 2;
  }
}

}  // namespace symbiosis::util
