// Exact k-nearest queries on the unit torus, for Pastry's neighbourhood set
// M ("the |M| geographically closest nodes").
//
// A linear scan ranks every node for every node, so a bulk build paid
// O(n^2). The grid buckets the members into dim x dim equal cells (dim a
// power of two, resized as membership grows and shrinks) and answers a
// query by scanning square rings of cells outward from the query's cell.
// It stops once the k-th best candidate is strictly closer than anything
// an unscanned cell could hold, so the answer is exactly the linear scan's
// (DESIGN.md §17): same metric, same (distance, handle) tie order.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/types.hpp"

namespace cycloid::pastry {

/// Squared Euclidean distance on the unit torus — Pastry's proximity
/// metric. Coordinates must lie in [0, 1).
inline double torus_distance2(double ax, double ay, double bx, double by) {
  const auto axis = [](double u, double v) {
    const double d = std::fabs(u - v);
    return d > 0.5 ? 1.0 - d : d;
  };
  const double dx = axis(ax, bx);
  const double dy = axis(ay, by);
  return dx * dx + dy * dy;
}

class ProximityGrid {
 public:
  /// A member as the grid stores it: its coordinates travel with the
  /// handle, so a query reads no node record.
  struct Entry {
    double x = 0.0;
    double y = 0.0;
    dht::NodeHandle handle = dht::kNoNode;
  };

  ProximityGrid() : cells_(1) {}

  /// Add a member (coordinates in [0, 1)). Amortised O(1): the grid
  /// doubles its cells per axis when the mean load passes kMaxLoad.
  void insert(const Entry& entry);
  /// Remove a member previously inserted with the same coordinates and
  /// handle. Amortised O(1): the grid halves its cells per axis when the
  /// mean load drops below 1/kMaxLoad.
  void erase(const Entry& entry);

  std::size_t size() const noexcept { return size_; }
  /// Cells per axis.
  int dim() const noexcept { return dim_; }

  /// The `k` members nearest to `query` other than `query.handle`, ranked
  /// by (torus_distance2, handle) ascending, written to `out` (fewer when
  /// the grid holds fewer). Returns the number of candidates ranked — the
  /// query's deterministic work count. Read-only: safe to call from
  /// concurrent workers while membership is frozen.
  std::size_t nearest(const Entry& query, std::size_t k,
                      std::vector<dht::NodeHandle>& out) const;

 private:
  /// Mean members per cell that triggers a doubling of dim.
  static constexpr std::size_t kMaxLoad = 4;

  std::size_t cell_of(double x, double y) const;
  void resize(int dim);

  int dim_ = 1;
  std::vector<std::vector<Entry>> cells_;  // row-major, dim_ * dim_
  std::size_t size_ = 0;
};

}  // namespace cycloid::pastry
