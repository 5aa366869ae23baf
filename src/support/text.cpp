#include "confail/support/text.hpp"

#include <algorithm>
#include <sstream>

namespace confail {

std::string numbered(std::string_view prefix, long long n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string padTo(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::vector<std::string> wrap(std::string_view s, std::size_t width) {
  std::vector<std::string> lines;
  std::string cur;
  std::istringstream in{std::string(s)};
  std::string word;
  while (in >> word) {
    if (!cur.empty() && cur.size() + 1 + word.size() > width) {
      lines.push_back(cur);
      cur.clear();
    }
    if (cur.empty()) {
      // A single word longer than the width is hard-broken.
      while (word.size() > width) {
        lines.emplace_back(word.substr(0, width));
        word.erase(0, width);
      }
      cur = word;
    } else {
      cur += ' ';
      cur += word;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  if (lines.empty()) lines.emplace_back("");
  return lines;
}

std::string renderTable(const std::vector<std::vector<std::string>>& rows,
                        std::size_t maxColWidth) {
  if (rows.empty()) return {};
  std::size_t cols = 0;
  for (const auto& r : rows) cols = std::max(cols, r.size());

  // Wrap every cell, then fit column widths to the widest wrapped line.
  std::vector<std::vector<std::vector<std::string>>> wrapped(rows.size());
  std::vector<std::size_t> width(cols, 1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    wrapped[r].resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      std::string_view cell = c < rows[r].size() ? std::string_view(rows[r][c]) : "";
      wrapped[r][c] = wrap(cell, maxColWidth);
      for (const auto& line : wrapped[r][c]) {
        width[c] = std::max(width[c], line.size());
      }
    }
  }

  auto hline = [&] {
    std::string s = "+";
    for (std::size_t c = 0; c < cols; ++c) {
      s += std::string(width[c] + 2, '-');
      s += '+';
    }
    s += '\n';
    return s;
  };

  std::string out = hline();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::size_t height = 1;
    for (std::size_t c = 0; c < cols; ++c) {
      height = std::max(height, wrapped[r][c].size());
    }
    for (std::size_t line = 0; line < height; ++line) {
      out += '|';
      for (std::size_t c = 0; c < cols; ++c) {
        std::string_view text =
            line < wrapped[r][c].size() ? std::string_view(wrapped[r][c][line]) : "";
        out += ' ';
        out += padTo(text, width[c]);
        out += " |";
      }
      out += '\n';
    }
    if (r == 0) out += hline();
  }
  out += hline();
  return out;
}

}  // namespace confail
