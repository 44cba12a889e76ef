// Small string helpers used by reporting and serialization.
#pragma once

#include <string>
#include <vector>

namespace tsnn::str {

/// Splits `s` on `delim`; empty fields are preserved.
std::vector<std::string> split(const std::string& s, char delim);

/// Joins `parts` with `delim` between elements.
std::string join(const std::vector<std::string>& parts, const std::string& delim);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Formats `value` in engineering/scientific style matching the paper's
/// tables, e.g. 94800 -> "9.48E4".
std::string sci(double value, int digits = 2);

/// Formats a double with fixed decimals, e.g. format_fixed(99.185, 2) -> "99.19".
std::string format_fixed(double value, int decimals);

/// Shortest decimal form that round-trips the exact double ("0.1", never
/// "0.1000000000000000055..."): strtod of the result reproduces `value`
/// bit-for-bit. Scenario specs and grid checkpoints use this so text files
/// carry measured doubles without loss.
std::string round_trip(double value);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// True if `s` ends with `suffix`.
bool ends_with(const std::string& s, const std::string& suffix);

}  // namespace tsnn::str
