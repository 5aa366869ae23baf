// Small text utilities used by reports, trace serialization and benches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace confail {

/// `prefix` followed by the decimal rendering of `n` ("t", 3 -> "t3").
/// Appends the two pieces: GCC 12 at -O3 misreads the inlined
/// `"t" + std::to_string(n)` as an overlapping copy (-Werror=restrict).
std::string numbered(std::string_view prefix, long long n);

/// Join the string representations of a range with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Split a string on a single-character separator (no empty-trailing trim).
std::vector<std::string> split(std::string_view s, char sep);

/// Left-pad/truncate a string to exactly `width` columns (for table output).
std::string padTo(std::string_view s, std::size_t width);

/// Word-wrap `s` to lines of at most `width` columns (breaks on spaces).
std::vector<std::string> wrap(std::string_view s, std::size_t width);

/// Render a simple ASCII table: `rows[r][c]`; column widths are fitted and
/// cells word-wrapped to `maxColWidth`. First row is treated as a header.
std::string renderTable(const std::vector<std::vector<std::string>>& rows,
                        std::size_t maxColWidth = 28);

}  // namespace confail
