#include "src/core/serialization.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/util/status.hpp"

namespace mocos::core {

namespace {

constexpr const char* kHeader = "mocos-schedule v1";

/// The schedule text, handed to `write(std::string_view)` in pieces: the
/// header, then each row as soon as it is formatted. serialize_schedule and
/// save_schedule both print through it, so the file and the string hold the
/// same bytes, and the file path never holds more than one row of text.
template <class Write>
void format_schedule(const markov::TransitionMatrix& p, Write&& write) {
  const std::size_t n = p.size();
  write(std::string(kHeader) + "\npois " + std::to_string(n) + '\n');
  const auto& offsets = p.csr().row_offsets();
  const auto& cols = p.csr().col_indices();
  const std::vector<double>& values = p.csr().values();
  std::vector<double> row(n);
  std::string line;
  // %.17g (max_digits10 significant digits) per entry, which is what the
  // stream form `setprecision(17) << x` prints, without a stream per value.
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      row[cols[e]] = values[e];
    line.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::to_chars_result r = std::to_chars(
          buf, buf + sizeof buf, row[j], std::chars_format::general, 17);
      line.append(buf, r.ptr);
      line += j + 1 < n ? ' ' : '\n';
    }
    write(line);
  }
}

}  // namespace

std::string serialize_schedule(const markov::TransitionMatrix& p) {
  std::string out;
  format_schedule(p, [&out](std::string_view piece) { out += piece; });
  return out;
}

markov::TransitionMatrix deserialize_schedule(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    throw std::invalid_argument(
        "deserialize_schedule: missing 'mocos-schedule v1' header");
  std::string keyword;
  std::size_t n = 0;
  if (!(in >> keyword >> n) || keyword != "pois" || n < 2)
    throw std::invalid_argument(
        "deserialize_schedule: expected 'pois <M>' with M >= 2");
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double v = 0.0;
      if (!(in >> v))
        throw std::invalid_argument(
            "deserialize_schedule: truncated matrix data");
      m(i, j) = v;
    }
  }
  double extra;
  if (in >> extra)
    throw std::invalid_argument("deserialize_schedule: trailing data");
  return markov::TransitionMatrix(std::move(m));
}

void save_schedule(const std::string& path,
                   const markov::TransitionMatrix& p) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_schedule: cannot write " + path);
  format_schedule(p, [&out](std::string_view piece) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  });
  out.close();
  if (!out) throw std::runtime_error("save_schedule: write failed " + path);
}

markov::TransitionMatrix load_schedule(const std::string& path) {
  std::ifstream in(path);
  // Structured code so the CLI maps an unreadable schedule to the same
  // bad-config exit as an unreadable config file (StatusError still derives
  // std::runtime_error for existing callers).
  if (!in)
    throw util::StatusError(
        util::Status(util::StatusCode::kInvalidConfig,
                     "load_schedule: cannot read " + path));
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_schedule(buf.str());
}

}  // namespace mocos::core
