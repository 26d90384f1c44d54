// Simulated shared-memory tile with swizzled layouts and bank-conflict
// accounting (Section 3.1.2, "Lightweight Layout Swizzle").
//
// GPU shared memory is organized in 32 four-byte banks; a warp whose lanes
// touch distinct words in the same bank serializes.  The paper's swizzle
// (x_p = x_l XOR y_l, y_p = y_l) makes the in-SMEM striped->blocked
// transpose of the r-integrals conflict-free.  The host engine writes its
// r-integrals blocked directly and runs no transpose; the TileBuffer
// reproduces the device addressing so its conflict counters check the
// paper's "entirely conflict-free" claim (bench_ablation_design).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mako {

/// Logical->physical coordinate mappings available for a tile.
enum class TileLayout {
  kNaive,    ///< x_p = x_l, y_p = y_l (row-major, conflict-prone transposes)
  kSwizzle,  ///< x_p = x_l ^ y_l, y_p = y_l (Eq. 10 of the paper)
};

/// The bijective swizzle mapping of Eq. 10.
struct SwizzleMap {
  /// physical column for logical (x, y).
  static constexpr std::size_t physical_x(std::size_t x, std::size_t y) {
    return x ^ y;
  }
  /// Inverse: logical column for physical (x, y).  XOR is an involution per
  /// row, so the inverse is the same mapping — this is the bijectivity the
  /// paper's Eq. 9/10 requires.
  static constexpr std::size_t logical_x(std::size_t x, std::size_t y) {
    return x ^ y;
  }
};

/// A width x height tile of T elements living in simulated shared memory.
/// Width must be a power of two no larger than the bank count for the XOR
/// swizzle to stay in-range.
template <typename T>
class TileBuffer {
 public:
  TileBuffer(std::size_t width, std::size_t height, TileLayout layout,
             int banks = 32, int bank_width_bytes = 4)
      : width_(width),
        height_(height),
        layout_(layout),
        banks_(banks),
        bank_width_bytes_(bank_width_bytes),
        data_(width * height) {}

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] TileLayout layout() const noexcept { return layout_; }

  /// Physical flat index of a logical coordinate.
  [[nodiscard]] std::size_t physical_index(std::size_t x,
                                           std::size_t y) const noexcept {
    const std::size_t px =
        (layout_ == TileLayout::kSwizzle) ? SwizzleMap::physical_x(x, y) : x;
    return y * width_ + px;
  }

  void store(std::size_t x, std::size_t y, T value) {
    data_[physical_index(x, y)] = value;
  }
  [[nodiscard]] T load(std::size_t x, std::size_t y) const {
    return data_[physical_index(x, y)];
  }

  /// Bank of the physical word holding element (x, y).
  [[nodiscard]] int bank_of(std::size_t x, std::size_t y) const noexcept {
    const std::size_t byte = physical_index(x, y) * sizeof(T);
    return static_cast<int>((byte / bank_width_bytes_) % banks_);
  }

  /// Counts the shared-memory transactions a 32-lane warp needs when lane i
  /// accesses logical coordinate coords[i].  1 == conflict-free; k means a
  /// k-way serialization.  Lanes hitting the same word broadcast for free.
  [[nodiscard]] int warp_transactions(
      const std::vector<std::pair<std::size_t, std::size_t>>& coords) const;

  /// Simulated-warp column access: lane i touches (x=col, y=i).  This is the
  /// transposed access pattern of the striped->blocked conversion.
  [[nodiscard]] int column_access_transactions(std::size_t col) const;

  /// Simulated-warp row access: lane i touches (x=i, y=row).
  [[nodiscard]] int row_access_transactions(std::size_t row) const;

 private:
  std::size_t width_;
  std::size_t height_;
  TileLayout layout_;
  int banks_;
  int bank_width_bytes_;
  std::vector<T> data_;
};

extern template class TileBuffer<float>;
extern template class TileBuffer<double>;

}  // namespace mako
