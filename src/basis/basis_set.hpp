// Molecular basis set: shells instantiated on atomic centers with normalized
// contraction coefficients, plus the AO indexing used by every integral
// engine.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_data.hpp"
#include "chem/molecule.hpp"

namespace mako {

/// One contracted shell placed on an atom.  Coefficients already include the
/// primitive normalization and the contracted-shell normalization, so the
/// Cartesian x^l component (and every spherical component after the
/// cart->sph transform) has unit self-overlap.
struct Shell {
  int l = 0;
  std::size_t atom = 0;
  Vec3 center{0, 0, 0};
  std::vector<double> exponents;
  std::vector<double> coefficients;
  std::size_t sph_offset = 0;  ///< first spherical AO index of this shell

  [[nodiscard]] int nprim() const noexcept {
    return static_cast<int>(exponents.size());
  }
  [[nodiscard]] int num_sph() const noexcept { return 2 * l + 1; }
  [[nodiscard]] int num_cart() const noexcept {
    return (l + 1) * (l + 2) / 2;
  }
};

/// Normalization factor of a primitive Cartesian Gaussian x^l e^{-a r^2}.
double primitive_norm(double exponent, int l);

/// Applies primitive + contracted normalization to a raw shell in place
/// (the same procedure BasisSet applies when instantiating a basis).
void normalize_shell(Shell& shell);

/// Lifetime anchor of one BasisSet.  Caches of data derived from a basis'
/// shells (FockPlanCache: the FockPlan points into them) attach that data
/// here, so it is freed with the basis however long the cache lives, and
/// hold only weak references themselves.
class BasisAnchor {
 public:
  /// Keeps `data` alive until the basis dies or `owner` detaches.
  void attach(const void* owner, std::shared_ptr<const void> data);
  /// Releases everything `owner` attached.
  void detach(const void* owner);

 private:
  std::mutex mutex_;
  std::vector<std::pair<const void*, std::shared_ptr<const void>>> attached_;
};

/// A full molecular basis.
class BasisSet {
 public:
  /// Instantiates `basis_name` on every atom of `mol`.
  /// Throws on unknown basis names or unsupported elements.
  BasisSet(const Molecule& mol, const std::string& basis_name);

  [[nodiscard]] const std::vector<Shell>& shells() const noexcept {
    return shells_;
  }
  [[nodiscard]] std::size_t num_shells() const noexcept {
    return shells_.size();
  }
  /// Total number of (spherical) basis functions.
  [[nodiscard]] std::size_t nbf() const noexcept { return nbf_; }
  [[nodiscard]] int max_l() const noexcept { return max_l_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Shells sorted into angular-momentum classes; class key = l.  Mako's
  /// batched engines and CompilerMako group work this way.
  [[nodiscard]] std::vector<std::vector<std::size_t>> shells_by_l() const;

  /// This basis' lifetime anchor: expires when the basis is destroyed.
  /// Every instance has its own; copies never share it.
  [[nodiscard]] const std::shared_ptr<BasisAnchor>& anchor() const noexcept {
    return anchor_.ptr;
  }

 private:
  /// Holds a fresh anchor per instance, whether constructed, copied or
  /// assigned (a copy has its own shells, so derived data never carries
  /// over).  Declared last: attached data dies before the shells.
  struct AnchorSlot {
    AnchorSlot() = default;
    AnchorSlot(const AnchorSlot&) {}
    AnchorSlot& operator=(const AnchorSlot&) {
      ptr = std::make_shared<BasisAnchor>();
      return *this;
    }
    std::shared_ptr<BasisAnchor> ptr = std::make_shared<BasisAnchor>();
  };

  std::string name_;
  std::vector<Shell> shells_;
  std::size_t nbf_ = 0;
  int max_l_ = 0;
  AnchorSlot anchor_;
};

}  // namespace mako
