#include "kernelmako/class_plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "basis/spherical.hpp"
#include "linalg/backend.hpp"

namespace mako {

namespace {

/// The Eq. 6 tables of one (bra order, ket order) pair.
struct HermitePairTables {
  std::vector<double> sign_cd;
  std::vector<int> combined;

  HermitePairTables(int lab, int lcd) {
    const HermiteBasis& hb_ab = HermiteBasis::get(lab);
    const HermiteBasis& hb_cd = HermiteBasis::get(lcd);
    const HermiteBasis& hb_tot = HermiteBasis::get(lab + lcd);
    const int nhb = hb_ab.size();
    const int nhk = hb_cd.size();
    sign_cd.resize(nhk);
    for (int h = 0; h < nhk; ++h) {
      const auto& q = hb_cd.component(h);
      sign_cd[h] = ((q[0] + q[1] + q[2]) % 2 == 0) ? 1.0 : -1.0;
    }
    combined.resize(static_cast<std::size_t>(nhb) * nhk);
    for (int hp = 0; hp < nhb; ++hp) {
      const auto& p = hb_ab.component(hp);
      for (int hq = 0; hq < nhk; ++hq) {
        const auto& q = hb_cd.component(hq);
        combined[static_cast<std::size_t>(hp) * nhk + hq] =
            hb_tot.index(p[0] + q[0], p[1] + q[1], p[2] + q[2]);
      }
    }
  }
};

/// One immutable copy per order pair for the whole process, built on first
/// use (lookups after that take no lock), like HermiteBasis::get.
const HermitePairTables& hermite_pair_tables(int lab, int lcd) {
  constexpr int kN = HermiteBasis::kMaxOrder + 1;
  static std::array<std::once_flag, kN * kN> once;
  static std::array<std::optional<HermitePairTables>, kN * kN> table;
  if (lab < 0 || lcd < 0 || lab + lcd > HermiteBasis::kMaxOrder) {
    throw std::out_of_range("hermite_pair_tables: orders " +
                            std::to_string(lab) + " + " + std::to_string(lcd) +
                            " outside [0, " +
                            std::to_string(HermiteBasis::kMaxOrder) + "]");
  }
  const int i = lab * kN + lcd;
  std::call_once(once[i], [&] { table[i].emplace(lab, lcd); });
  return *table[i];
}

}  // namespace

EriClassPlan::EriClassPlan(const EriClassKey& key)
    : sign_cd(hermite_pair_tables(key.lab(), key.lcd()).sign_cd),
      combined(hermite_pair_tables(key.lab(), key.lcd()).combined),
      key_(key) {
  nhb = key.nherm_bra();
  nhk = key.nherm_ket();
  nht = nherm(key.ltot());
  ncb = key.ncart_bra();
  nck = key.ncart_ket();
  nsb = key.nsph_bra();
  nsk = key.nsph_ket();
  ltot = key.ltot();
  sph_bra = &cart_to_sph_pair(key.la, key.lb);
  sph_ket = &cart_to_sph_pair(key.lc, key.ld);
}

const EriClassPlan& EriPlanCache::get(const EriClassKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    it = plans_.emplace(key, std::make_unique<EriClassPlan>(key)).first;
  }
  return *it->second;
}

std::size_t EriPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

void build_pair_operand(const Shell& a, const Shell& b, const MatrixD& sph,
                        PairOperand& out) {
  const int la = a.l;
  const int lb = b.l;
  const std::size_t nh = static_cast<std::size_t>(nherm(la + lb));
  const std::size_t nc = static_cast<std::size_t>(ncart(la)) * ncart(lb);
  const std::size_t ns = sph.rows();
  const std::size_t kab = static_cast<std::size_t>(a.nprim()) * b.nprim();

  // Column-compressed nonzeros of the cart->sph transform: each Cartesian
  // pair component feeds only a few spherical ones.  Thread-local storage
  // keeps warm calls allocation-free.
  static thread_local std::vector<std::size_t> nz_start, nz_row;
  static thread_local std::vector<double> nz_val;
  nz_start.clear();
  nz_row.clear();
  nz_val.clear();
  for (std::size_t c = 0; c < nc; ++c) {
    nz_start.push_back(nz_row.size());
    for (std::size_t s = 0; s < ns; ++s) {
      if (sph(s, c) != 0.0) {
        nz_row.push_back(s);
        nz_val.push_back(sph(s, c));
      }
    }
  }
  nz_start.push_back(nz_row.size());

  out.prims.resize(kab);
  make_prim_pairs(a.center, a.exponents, a.coefficients, b.center,
                  b.exponents, b.coefficients, out.prims.data());
  out.e.assign(kab * nh * ns, 0.0);

  // Fold: E'_jp(h, s) = sum_c E_jp(h, c) * S(s, c), summed in ascending c
  // over E_jp's structural nonzeros (the zeros add nothing).
  static thread_local ESparse e_jp;
  for (std::size_t jp = 0; jp < kab; ++jp) {
    const PrimPair& pp = out.prims[jp];
    build_e_sparse(la, lb, a.center, b.center, pp.alpha, pp.beta, pp.coef,
                   e_jp);
    double* block = out.e.data() + jp * nh * ns;
    for (std::size_t c = 0; c < nc; ++c) {
      for (int i = e_jp.col_start[c]; i < e_jp.col_start[c + 1]; ++i) {
        double* row = block + static_cast<std::size_t>(e_jp.h[i]) * ns;
        const double v = e_jp.v[i];
        for (std::size_t z = nz_start[c]; z < nz_start[c + 1]; ++z) {
          row[nz_row[z]] += v * nz_val[z];
        }
      }
    }
  }

  double m = 0.0;
  for (double v : out.e) m = std::max(m, std::fabs(v));
  out.scale = m > 0.0 ? 1.0 / m : 1.0;
}

void quantize_pair_operand(const PairOperand& op, Precision p, float* dst) {
  quantize_to_float(op.e.data(), dst, op.e.size(), p, op.scale);
}

}  // namespace mako
