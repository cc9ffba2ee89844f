#include "src/core/serialization.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/status.hpp"

namespace mocos::core {

namespace {
constexpr const char* kHeader = "mocos-schedule v1";
}

std::string serialize_schedule(const markov::TransitionMatrix& p) {
  const std::size_t n = p.size();
  std::string out =
      std::string(kHeader) + "\npois " + std::to_string(n) + '\n';
  // %.17g (max_digits10 significant digits) per entry, which is what the
  // stream form `setprecision(17) << x` prints, without a stream per value.
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    const linalg::Vector row = p.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const std::to_chars_result r = std::to_chars(
          buf, buf + sizeof buf, row[j], std::chars_format::general, 17);
      out.append(buf, r.ptr);
      out += j + 1 < n ? ' ' : '\n';
    }
  }
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
  out << serialize_schedule(p);
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
