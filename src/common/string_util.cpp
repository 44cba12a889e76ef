#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace tsnn::str {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream iss(s);
  while (std::getline(iss, field, delim)) {
    out.push_back(field);
  }
  if (!s.empty() && s.back() == delim) {
    out.emplace_back();
  }
  if (s.empty()) {
    out.emplace_back();
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += delim;
    }
    out += parts[i];
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string sci(double value, int digits) {
  if (value == 0.0) {
    return "0";
  }
  const double a = std::fabs(value);
  const int exponent = static_cast<int>(std::floor(std::log10(a)));
  const double mantissa = value / std::pow(10.0, exponent);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fE%d", digits, mantissa, exponent);
  return std::string{buf};
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return std::string{buf};
}

std::string round_trip(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 32 bytes always fit the shortest form
  return std::string(buf, ptr);
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace tsnn::str
