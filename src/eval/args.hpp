// Shared typed command-line parser for the bench harnesses.
//
// Every bench binary used to carry its own `arg_value`/`arg_string`
// scanners (or a hand-rolled loop); this is the one replacement. Flags
// are registered against typed storage with a help line, then `parse`
// walks argv: unknown flags and missing values are errors (exit code 2),
// `--help`/`-h` prints the synopsis plus every registered flag with its
// default and returns false with exit code 0.
//
//   eval::Args args("macro_scenario", "full-pipeline macro benchmark");
//   args.opt("--domains", &params.domains, "number of domains");
//   args.flag("--ladder", &params.ladder, "run the scale ladder");
//   if (!args.parse(argc, argv)) return args.exit_code();
//
// List-valued options take comma-separated values ("--domains 16,32,48").
// Numbers are range-checked: a value that overflows its type, or a
// non-finite double, is a bad value (exit code 2) like any other.
// One bare argument (an input file) may be registered with positional().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace eval {

class Args {
 public:
  Args(std::string program, std::string synopsis);

  // Value-taking options. The target's current value is the default shown
  // in --help; parse overwrites it in place.
  void opt(const std::string& name, int* target, const std::string& help);
  void opt(const std::string& name, std::uint64_t* target,
           const std::string& help);
  void opt(const std::string& name, double* target, const std::string& help);
  void opt(const std::string& name, std::string* target,
           const std::string& help);
  // Comma-separated lists ("16,32,48").
  void opt(const std::string& name, std::vector<int>* target,
           const std::string& help);
  void opt(const std::string& name, std::vector<std::uint64_t>* target,
           const std::string& help);
  void opt(const std::string& name, std::vector<std::string>* target,
           const std::string& help);

  // Boolean switch: present -> true, no value consumed.
  void flag(const std::string& name, bool* target, const std::string& help);

  // The one bare (non-flag) argument, e.g. an input file. Without it any
  // bare argument is an error; a second one always is.
  void positional(const std::string& name, std::string* target,
                  const std::string& help);

  // Parses argv. Returns true if the program should proceed; false on
  // --help (exit_code 0) or a parse error (exit_code 2, message already
  // printed to stderr).
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] int exit_code() const { return exit_code_; }

  void print_help() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    std::string default_text;
    bool takes_value = true;
    // Parses `value` into the bound target; returns false on bad input.
    std::function<bool(const std::string& value)> apply;
  };

  void add(Spec spec);
  [[nodiscard]] const Spec* find(const std::string& name) const;

  std::string program_;
  std::string synopsis_;
  std::vector<Spec> specs_;
  std::string positional_name_;
  std::string positional_help_;
  std::string* positional_ = nullptr;
  int exit_code_ = 0;
};

/// Splits "a,b,c" into its non-empty comma-separated items.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& text);

}  // namespace eval
