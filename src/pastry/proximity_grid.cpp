#include "pastry/proximity_grid.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace cycloid::pastry {

namespace {
/// Cells per axis never exceed this (4M cells, at n > 16M members).
constexpr int kMaxDim = 1 << 11;
}  // namespace

std::size_t ProximityGrid::cell_of(double x, double y) const {
  CYCLOID_ASSERT(x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0);
  // dim_ is a power of two, so the scaling is exact and u * dim_ < dim_.
  const auto cx = static_cast<std::size_t>(x * dim_);
  const auto cy = static_cast<std::size_t>(y * dim_);
  return cy * static_cast<std::size_t>(dim_) + cx;
}

void ProximityGrid::resize(int dim) {
  std::vector<std::vector<Entry>> old = std::move(cells_);
  dim_ = dim;
  cells_.assign(static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim),
                {});
  for (const std::vector<Entry>& cell : old) {
    for (const Entry& e : cell) cells_[cell_of(e.x, e.y)].push_back(e);
  }
}

void ProximityGrid::insert(const Entry& entry) {
  cells_[cell_of(entry.x, entry.y)].push_back(entry);
  ++size_;
  const auto cells = static_cast<std::size_t>(dim_) * dim_;
  if (size_ > kMaxLoad * cells && dim_ < kMaxDim) resize(2 * dim_);
}

void ProximityGrid::erase(const Entry& entry) {
  std::vector<Entry>& cell = cells_[cell_of(entry.x, entry.y)];
  const auto it = std::find_if(cell.begin(), cell.end(), [&](const Entry& e) {
    return e.handle == entry.handle;
  });
  CYCLOID_EXPECTS(it != cell.end());
  *it = cell.back();
  cell.pop_back();
  --size_;
  const auto cells = static_cast<std::size_t>(dim_) * dim_;
  if (dim_ > 1 && size_ * kMaxLoad < cells) resize(dim_ / 2);
}

std::size_t ProximityGrid::nearest(const Entry& query, std::size_t k,
                                   std::vector<dht::NodeHandle>& out) const {
  out.clear();
  if (k == 0) return 0;
  std::vector<std::pair<double, dht::NodeHandle>> ranked;
  const auto scan = [&](const std::vector<Entry>& cell) {
    for (const Entry& e : cell) {
      if (e.handle == query.handle) continue;
      ranked.emplace_back(torus_distance2(query.x, query.y, e.x, e.y),
                          e.handle);
    }
  };

  // Ring r holds the cells at Chebyshev cell distance exactly r from the
  // query's cell. A point in an unscanned cell (distance >= r + 1 on some
  // axis) lies at least r cell widths away on that axis, and r / dim_ is
  // exact, so its computed distance is >= (r / dim_)^2: rounding is
  // monotone. A strictly smaller k-th best therefore ranks ahead of every
  // unscanned point under the (distance, handle) order. Rings stay
  // distinct while 2r + 1 < dim_; past that the torus wraps and the query
  // falls back to scanning every cell.
  const std::size_t mask = static_cast<std::size_t>(dim_) - 1;
  const auto cx = static_cast<std::size_t>(query.x * dim_);
  const auto cy = static_cast<std::size_t>(query.y * dim_);
  const auto at = [&](std::ptrdiff_t dx, std::ptrdiff_t dy)
      -> const std::vector<Entry>& {
    const std::size_t i = (cx + static_cast<std::size_t>(dx)) & mask;
    const std::size_t j = (cy + static_cast<std::size_t>(dy)) & mask;
    return cells_[j * static_cast<std::size_t>(dim_) + i];
  };
  bool exact = false;
  for (std::ptrdiff_t r = 0; 2 * r + 1 < dim_; ++r) {
    if (r == 0) {
      scan(at(0, 0));
      continue;
    }
    for (std::ptrdiff_t d = -r; d <= r; ++d) {
      scan(at(d, -r));
      scan(at(d, r));
    }
    for (std::ptrdiff_t d = -r + 1; d < r; ++d) {
      scan(at(-r, d));
      scan(at(r, d));
    }
    if (ranked.size() < k) continue;
    const auto kth = ranked.begin() + static_cast<std::ptrdiff_t>(k - 1);
    std::nth_element(ranked.begin(), kth, ranked.end());
    const double reach = static_cast<double>(r) / dim_;
    if (kth->first < reach * reach) {
      exact = true;
      break;
    }
  }
  std::size_t work = ranked.size();
  if (!exact) {
    ranked.clear();
    for (const std::vector<Entry>& cell : cells_) scan(cell);
    work += ranked.size();
  }

  const std::size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end());
  for (std::size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
  return work;
}

}  // namespace cycloid::pastry
