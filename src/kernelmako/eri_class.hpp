// ERI class descriptor.
//
// ERIs sharing an angular-momentum pattern and contraction degrees follow the
// same static execution pattern (Section 3.3): same intermediate shapes, same
// GEMM dimensions, same reuse structure.  The class key is what CompilerMako
// plans against and what KernelMako batches over.
#pragma once

#include <string>
#include <tuple>

#include "integrals/hermite.hpp"
#include "basis/spherical.hpp"

namespace mako {

struct EriClassKey {
  int la = 0, lb = 0, lc = 0, ld = 0;
  int kab = 1;  ///< bra contraction degree (primitive pairs)
  int kcd = 1;  ///< ket contraction degree

  [[nodiscard]] auto tie() const {
    return std::tie(la, lb, lc, ld, kab, kcd);
  }
  [[nodiscard]] bool operator<(const EriClassKey& o) const {
    return tie() < o.tie();
  }
  [[nodiscard]] bool operator==(const EriClassKey& o) const {
    return tie() == o.tie();
  }

  [[nodiscard]] int lab() const noexcept { return la + lb; }
  [[nodiscard]] int lcd() const noexcept { return lc + ld; }
  [[nodiscard]] int ltot() const noexcept { return lab() + lcd(); }

  [[nodiscard]] int nherm_bra() const noexcept { return nherm(lab()); }
  [[nodiscard]] int nherm_ket() const noexcept { return nherm(lcd()); }
  [[nodiscard]] int ncart_bra() const noexcept { return ncart(la) * ncart(lb); }
  [[nodiscard]] int ncart_ket() const noexcept { return ncart(lc) * ncart(ld); }
  [[nodiscard]] int nsph_bra() const noexcept { return nsph(la) * nsph(lb); }
  [[nodiscard]] int nsph_ket() const noexcept { return nsph(lc) * nsph(ld); }

  /// Human-readable name, e.g. "(dd|pp) K{1,5}".
  [[nodiscard]] std::string name() const;

  // FLOP split of the Eq.-7 basis-transformation GEMMs for one quartet:
  // GEMM1 runs kab*kcd times, GEMM2 kcd times (Algorithm 1).
  [[nodiscard]] double gemm1_flops() const noexcept {
    return 2.0 * static_cast<double>(ncart_bra()) * nherm_ket() * nherm_bra() *
           kab * kcd;
  }
  [[nodiscard]] double gemm2_flops() const noexcept {
    return 2.0 * static_cast<double>(ncart_bra()) * ncart_ket() * nherm_ket() *
           kcd;
  }
  [[nodiscard]] double gemm_flops_per_quartet() const noexcept {
    return gemm1_flops() + gemm2_flops();
  }
};

}  // namespace mako
