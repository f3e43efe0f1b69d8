#pragma once

/// \file args.hpp
/// Tiny command-line parser for the CLI driver: --key=value / --key value /
/// --flag, with typed accessors and defaults.
///
/// Every accessor (`has` included) records the key it was asked for, so a
/// command that has read all the flags it understands can reject the rest
/// with `reject_unread` — a misspelled flag fails loudly instead of being
/// ignored.  The record is not synchronized: read flags on one thread.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wakeup::util {

class Args {
 public:
  /// Parses argv; unknown positional arguments are collected in order.
  /// Throws std::invalid_argument on a malformed option ("--=x").
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  /// String value or default.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;

  /// Integer value or default; throws std::invalid_argument when the value
  /// is present but not numeric.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// Double value or default.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

  /// Flag: present with no value, or an explicit true/false value.
  [[nodiscard]] bool get_flag(const std::string& key) const;

  /// Throws std::invalid_argument naming the first option that no accessor
  /// has asked for yet.
  void reject_unread() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace wakeup::util
