#include "src/linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mocos::linalg {

SparsityPattern::SparsityPattern(std::size_t rows, std::size_t cols,
                                 std::vector<std::size_t> row_offsets,
                                 std::vector<std::size_t> col_indices)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      diagonal_(rows, npos) {
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e)
      if (col_indices_[e] == i) diagonal_[i] = e;
}

Pattern SparsityPattern::full(std::size_t rows, std::size_t cols) {
  std::vector<std::size_t> offsets(rows + 1);
  std::vector<std::size_t> columns(rows * cols);
  for (std::size_t i = 0; i <= rows; ++i) offsets[i] = i * cols;
  for (std::size_t e = 0; e < columns.size(); ++e) columns[e] = e % cols;
  return Pattern(new SparsityPattern(rows, cols, std::move(offsets),
                                     std::move(columns)));
}

Pattern SparsityPattern::from_rows(
    std::size_t cols, const std::vector<std::vector<std::size_t>>& rows) {
  std::vector<std::size_t> offsets(rows.size() + 1, 0);
  std::vector<std::size_t> columns;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t k = 0; k < rows[i].size(); ++k) {
      const std::size_t j = rows[i][k];
      if (j >= cols || (k > 0 && j <= rows[i][k - 1]))
        throw std::invalid_argument(
            "SparsityPattern::from_rows: row " + std::to_string(i) +
            " is not strictly increasing within the column range");
      columns.push_back(j);
    }
    offsets[i + 1] = columns.size();
  }
  return Pattern(new SparsityPattern(rows.size(), cols, std::move(offsets),
                                     std::move(columns)));
}

std::size_t SparsityPattern::find(std::size_t i, std::size_t j) const {
  if (i >= rows_ || j >= cols_)
    throw std::out_of_range("SparsityPattern::find");
  if (is_full()) return i * cols_ + j;
  const auto begin =
      col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i]);
  const auto end =
      col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return npos;
  return static_cast<std::size_t>(it - col_indices_.begin());
}

bool SparsityPattern::operator==(const SparsityPattern& other) const {
  if (this == &other) return true;
  if (rows_ != other.rows_ || cols_ != other.cols_ || nnz() != other.nnz())
    return false;
  return is_full() || (row_offsets_ == other.row_offsets_ &&
                       col_indices_ == other.col_indices_);
}

bool SparsityPattern::contains(const SparsityPattern& sub) const {
  if (rows_ != sub.rows_ || cols_ != sub.cols_) return false;
  if (is_full() || *this == sub) return true;
  for (std::size_t i = 0; i < rows_; ++i) {
    // Both rows are sorted: one merge pass per row.
    std::size_t e = row_offsets_[i];
    for (std::size_t s = sub.row_offsets_[i]; s < sub.row_offsets_[i + 1];
         ++s) {
      while (e < row_offsets_[i + 1] && col_indices_[e] < sub.col_indices_[s])
        ++e;
      if (e == row_offsets_[i + 1] || col_indices_[e] != sub.col_indices_[s])
        return false;
    }
  }
  return true;
}

const BandOrdering& SparsityPattern::band_ordering() const {
  if (rows_ != cols_)
    throw std::invalid_argument("band_ordering: pattern must be square");
  std::call_once(ordering_once_, [this] {
    const std::size_t n = rows_;
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
        const std::size_t j = col_indices_[e];
        if (j == i) continue;
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
    for (auto& a : adj) {
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    auto degree = [&](std::size_t v) { return adj[v].size(); };

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<bool> seen(n, false);
    // Per component: start from the minimum-degree vertex (lowest index on
    // ties), BFS with neighbors sorted by (degree, index), then reverse the
    // whole concatenation at the end (the "R" in RCM).
    for (;;) {
      std::size_t start = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (seen[v] && v != start) continue;
        if (!seen[v] && (start == n || degree(v) < degree(start))) start = v;
      }
      if (start == n) break;
      seen[start] = true;
      const std::size_t component_begin = order.size();
      order.push_back(start);
      for (std::size_t head = component_begin; head < order.size(); ++head) {
        std::vector<std::size_t> next;
        for (std::size_t j : adj[order[head]])
          if (!seen[j]) next.push_back(j);
        std::sort(next.begin(), next.end(),
                  [&](std::size_t a, std::size_t b) {
                    return degree(a) != degree(b) ? degree(a) < degree(b)
                                                  : a < b;
                  });
        for (std::size_t j : next) {
          seen[j] = true;
          order.push_back(j);
        }
      }
    }
    std::reverse(order.begin(), order.end());

    ordering_.position.assign(n, 0);
    for (std::size_t a = 0; a < n; ++a) ordering_.position[order[a]] = a;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
        const std::size_t a = ordering_.position[i];
        const std::size_t c = ordering_.position[col_indices_[e]];
        ordering_.bandwidth =
            std::max(ordering_.bandwidth, a > c ? a - c : c - a);
      }
    }
    ordering_.perm = std::move(order);
  });
  return ordering_;
}

SparseMatrix::SparseMatrix(Pattern pattern, double fill)
    : pattern_(std::move(pattern)), values_(pattern_->nnz(), fill) {}

SparseMatrix::SparseMatrix(Pattern pattern, std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
  if (values_.size() != pattern_->nnz())
    throw std::invalid_argument("SparseMatrix: value count != pattern nnz");
}

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> entries) {
  for (const Triplet& t : entries) {
    if (t.row >= rows || t.col >= cols)
      throw std::invalid_argument(
          "SparseMatrix::from_triplets: index (" + std::to_string(t.row) +
          ", " + std::to_string(t.col) + ") out of range");
    if (!std::isfinite(t.value))
      throw std::invalid_argument(
          "SparseMatrix::from_triplets: non-finite value");
  }
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<std::size_t> offsets(rows + 1, 0);
  std::vector<std::size_t> columns;
  std::vector<double> values;
  columns.reserve(entries.size());
  values.reserve(entries.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    offsets[r] = values.size();
    while (i < entries.size() && entries[i].row == r) {
      const std::size_t c = entries[i].col;
      double v = 0.0;
      while (i < entries.size() && entries[i].row == r &&
             entries[i].col == c) {
        v += entries[i].value;
        ++i;
      }
      // Exact on purpose: dropping only literal zeros keeps the dense
      // round-trip exact; near-zeros are genuine structure.
      // mocos-lint: allow(float-eq)
      if (v != 0.0) {
        columns.push_back(c);
        values.push_back(v);
      }
    }
  }
  offsets[rows] = values.size();
  SparseMatrix m;
  m.pattern_ = Pattern(new SparsityPattern(rows, cols, std::move(offsets),
                                           std::move(columns)));
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& d, double drop_tol) {
  std::vector<std::size_t> offsets(d.rows() + 1, 0);
  std::vector<std::size_t> columns;
  std::vector<double> values;
  for (std::size_t i = 0; i < d.rows(); ++i) {
    offsets[i] = values.size();
    for (std::size_t j = 0; j < d.cols(); ++j) {
      const double v = d(i, j);
      if (!std::isfinite(v))
        throw std::invalid_argument("SparseMatrix::from_dense: non-finite");
      if (std::abs(v) > drop_tol) {
        columns.push_back(j);
        values.push_back(v);
      }
    }
  }
  offsets[d.rows()] = values.size();
  SparseMatrix m;
  m.pattern_ = Pattern(new SparsityPattern(d.rows(), d.cols(),
                                           std::move(offsets),
                                           std::move(columns)));
  m.values_ = std::move(values);
  return m;
}

Matrix SparseMatrix::to_dense() const {
  Matrix d(rows(), cols(), 0.0);
  if (!pattern_) return d;
  const auto& offsets = row_offsets();
  const auto& cols = col_indices();
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      d(i, cols[e]) = values_[e];
  return d;
}

double SparseMatrix::density() const {
  if (rows() == 0 || cols() == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows()) * static_cast<double>(cols()));
}

double SparseMatrix::operator()(std::size_t i, std::size_t j) const {
  const std::size_t e = pattern_->find(i, j);
  return e == SparsityPattern::npos ? 0.0 : values_[e];
}

double& SparseMatrix::operator()(std::size_t i, std::size_t j) {
  const std::size_t e = pattern_->find(i, j);
  if (e == SparsityPattern::npos)
    throw std::out_of_range("SparseMatrix: entry (" + std::to_string(i) +
                            ", " + std::to_string(j) + ") is not stored");
  return values_[e];
}

double SparseMatrix::at(std::size_t row, std::size_t col) const {
  if (!pattern_ || row >= rows() || col >= cols())
    throw std::out_of_range("SparseMatrix::at");
  return (*this)(row, col);
}

void SparseMatrix::matvec(const Vector& x, Vector& y) const {
  if (x.size() != cols())
    throw std::invalid_argument("SparseMatrix::matvec: size mismatch");
  y.assign(rows(), 0.0);
  const auto& offsets = row_offsets();
  const auto& cols = col_indices();
  for (std::size_t i = 0; i < rows(); ++i) {
    double acc = 0.0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      acc += values_[e] * x[cols[e]];
    y[i] = acc;
  }
}

Vector SparseMatrix::matvec(const Vector& x) const {
  Vector y;
  matvec(x, y);
  return y;
}

void SparseMatrix::transpose_matvec(const Vector& x, Vector& y) const {
  if (x.size() != rows())
    throw std::invalid_argument(
        "SparseMatrix::transpose_matvec: size mismatch");
  y.assign(cols(), 0.0);
  const auto& offsets = row_offsets();
  const auto& cols = col_indices();
  for (std::size_t i = 0; i < rows(); ++i) {
    const double xi = x[i];
    // mocos-lint: allow(float-eq)
    if (xi == 0.0) continue;  // exact: skipping a zero scatter is lossless
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      y[cols[e]] += values_[e] * xi;
  }
}

Vector SparseMatrix::transpose_matvec(const Vector& x) const {
  Vector y;
  transpose_matvec(x, y);
  return y;
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<Triplet> entries;
  entries.reserve(nnz());
  const auto& offsets = row_offsets();
  const auto& cols = col_indices();
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      entries.push_back(Triplet{cols[e], i, values_[e]});
  return from_triplets(this->cols(), rows(), std::move(entries));
}

namespace {
void require_same_pattern(const SparseMatrix& a, const SparseMatrix& b,
                          const char* what) {
  if (!a.shared_pattern() || !b.shared_pattern() ||
      !(a.pattern() == b.pattern()))
    throw std::invalid_argument(std::string(what) + ": pattern mismatch");
}
}  // namespace

SparseMatrix& SparseMatrix::operator+=(const SparseMatrix& rhs) {
  require_same_pattern(*this, rhs, "SparseMatrix::operator+=");
  for (std::size_t e = 0; e < values_.size(); ++e) values_[e] += rhs.values_[e];
  return *this;
}

SparseMatrix& SparseMatrix::operator-=(const SparseMatrix& rhs) {
  require_same_pattern(*this, rhs, "SparseMatrix::operator-=");
  for (std::size_t e = 0; e < values_.size(); ++e) values_[e] -= rhs.values_[e];
  return *this;
}

SparseMatrix& SparseMatrix::operator*=(double s) {
  for (double& v : values_) v *= s;
  return *this;
}

bool operator==(const SparseMatrix& a, const SparseMatrix& b) {
  if (!a.pattern_ || !b.pattern_) return !a.pattern_ && !b.pattern_;
  return *a.pattern_ == *b.pattern_ && a.values_ == b.values_;
}

double frobenius_dot(const SparseMatrix& a, const SparseMatrix& b) {
  require_same_pattern(a, b, "frobenius_dot");
  double s = 0.0;
  const std::vector<double>& va = a.values();
  const std::vector<double>& vb = b.values();
  for (std::size_t e = 0; e < va.size(); ++e) s += va[e] * vb[e];
  return s;
}

double frobenius_dot(const SparseMatrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("frobenius_dot: shape mismatch");
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      s += a.values()[e] * b(i, cols[e]);
  return s;
}

}  // namespace mocos::linalg
