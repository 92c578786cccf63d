#include "eval/args.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace eval {
namespace {

// Integer parsers reject out-of-range input instead of wrapping or
// narrowing it: strtoull would otherwise read "-1" as 2^64 - 1.

bool parse_int(const std::string& text, int& out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      value < INT_MIN || value > INT_MAX) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_ull(const std::string& text, unsigned long long& out) {
  if (text.find('-') != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  // strtod turns "1e999" into HUGE_VAL; no option wants inf or nan.
  return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

}  // namespace

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Args::Args(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

void Args::add(Spec spec) { specs_.push_back(std::move(spec)); }

const Args::Spec* Args::find(const std::string& name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Args::opt(const std::string& name, int* target, const std::string& help) {
  add({name, help, std::to_string(*target), true,
       [target](const std::string& v) { return parse_int(v, *target); }});
}

void Args::opt(const std::string& name, std::uint64_t* target,
               const std::string& help) {
  add({name, help, std::to_string(*target), true,
       [target](const std::string& v) {
         unsigned long long parsed = 0;
         if (!parse_ull(v, parsed)) return false;
         *target = static_cast<std::uint64_t>(parsed);
         return true;
       }});
}

void Args::opt(const std::string& name, double* target,
               const std::string& help) {
  std::ostringstream def;
  def << *target;
  add({name, help, def.str(), true, [target](const std::string& v) {
         double parsed = 0.0;
         if (!parse_double(v, parsed)) return false;
         *target = parsed;
         return true;
       }});
}

void Args::opt(const std::string& name, std::string* target,
               const std::string& help) {
  add({name, help, target->empty() ? "\"\"" : *target, true,
       [target](const std::string& v) {
         *target = v;
         return true;
       }});
}

void Args::opt(const std::string& name, std::vector<int>* target,
               const std::string& help) {
  std::ostringstream def;
  for (std::size_t i = 0; i < target->size(); ++i) {
    if (i > 0) def << ',';
    def << (*target)[i];
  }
  add({name, help, def.str(), true, [target](const std::string& v) {
         std::vector<int> parsed;
         for (const std::string& item : split_csv(v)) {
           int value = 0;
           if (!parse_int(item, value)) return false;
           parsed.push_back(value);
         }
         *target = std::move(parsed);
         return true;
       }});
}

void Args::opt(const std::string& name, std::vector<std::uint64_t>* target,
               const std::string& help) {
  std::ostringstream def;
  for (std::size_t i = 0; i < target->size(); ++i) {
    if (i > 0) def << ',';
    def << (*target)[i];
  }
  add({name, help, def.str(), true, [target](const std::string& v) {
         std::vector<std::uint64_t> parsed;
         for (const std::string& item : split_csv(v)) {
           unsigned long long value = 0;
           if (!parse_ull(item, value)) return false;
           parsed.push_back(static_cast<std::uint64_t>(value));
         }
         *target = std::move(parsed);
         return true;
       }});
}

void Args::opt(const std::string& name, std::vector<std::string>* target,
               const std::string& help) {
  std::ostringstream def;
  for (std::size_t i = 0; i < target->size(); ++i) {
    if (i > 0) def << ',';
    def << (*target)[i];
  }
  add({name, help, def.str(), true, [target](const std::string& v) {
         *target = split_csv(v);
         return true;
       }});
}

void Args::flag(const std::string& name, bool* target,
                const std::string& help) {
  add({name, help, *target ? "on" : "off", false,
       [target](const std::string&) {
         *target = true;
         return true;
       }});
}

void Args::positional(const std::string& name, std::string* target,
                      const std::string& help) {
  positional_name_ = name;
  positional_help_ = help;
  positional_ = target;
}

void Args::print_help() const {
  const std::string bare =
      positional_ == nullptr ? "" : " [" + positional_name_ + "]";
  std::printf("%s — %s\n\nusage: %s [flags]%s\n\n", program_.c_str(),
              synopsis_.c_str(), program_.c_str(), bare.c_str());
  if (positional_ != nullptr) {
    std::printf("  %-22s %s\n\n", positional_name_.c_str(),
                positional_help_.c_str());
  }
  std::printf("flags:\n");
  for (const Spec& s : specs_) {
    std::printf("  %-22s %s%s(default: %s)\n",
                (s.name + (s.takes_value ? " V" : "")).c_str(),
                s.help.c_str(), s.help.empty() ? "" : " ",
                s.default_text.c_str());
  }
  std::printf("  %-22s print this help and exit\n", "--help");
}

bool Args::parse(int argc, char** argv) {
  bool positional_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      exit_code_ = 0;
      return false;
    }
    if (positional_ != nullptr && !arg.empty() && arg[0] != '-') {
      if (positional_seen) {
        std::fprintf(stderr, "%s: unexpected argument %s (try --help)\n",
                     program_.c_str(), arg.c_str());
        exit_code_ = 2;
        return false;
      }
      *positional_ = arg;
      positional_seen = true;
      continue;
    }
    const Spec* spec = find(arg);
    if (spec == nullptr) {
      std::fprintf(stderr, "%s: unknown flag %s (try --help)\n",
                   program_.c_str(), arg.c_str());
      exit_code_ = 2;
      return false;
    }
    std::string value;
    if (spec->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", program_.c_str(),
                     arg.c_str());
        exit_code_ = 2;
        return false;
      }
      value = argv[++i];
    }
    if (!spec->apply(value)) {
      std::fprintf(stderr, "%s: bad value for %s: \"%s\"\n", program_.c_str(),
                   arg.c_str(), value.c_str());
      exit_code_ = 2;
      return false;
    }
  }
  return true;
}

}  // namespace eval
