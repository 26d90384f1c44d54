#include "basis/basis_set.hpp"

#include <cmath>
#include <stdexcept>

#include "basis/spherical.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Self-overlap of two same-center primitives with the x^l Cartesian part:
//   S_ij = (2l-1)!! / (2(a_i+a_j))^l * (pi/(a_i+a_j))^{3/2}.
double pair_overlap(double ai, double aj, int l) {
  const double p = ai + aj;
  return double_factorial(2 * l - 1) / std::pow(2.0 * p, l) *
         std::pow(kPi / p, 1.5);
}

}  // namespace

double primitive_norm(double exponent, int l) {
  // Normalizes x^l e^{-a r^2}: 1/sqrt(S_ii).
  return 1.0 / std::sqrt(pair_overlap(exponent, exponent, l));
}

void normalize_shell(Shell& shell) {
  const int k = shell.nprim();
  for (int i = 0; i < k; ++i) {
    shell.coefficients[i] *= primitive_norm(shell.exponents[i], shell.l);
  }
  double self = 0.0;
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      self += shell.coefficients[i] * shell.coefficients[j] *
              pair_overlap(shell.exponents[i], shell.exponents[j], shell.l);
    }
  }
  if (self <= 0.0) {
    throw std::runtime_error("normalize_shell: non-normalizable shell");
  }
  const double scale = 1.0 / std::sqrt(self);
  for (double& c : shell.coefficients) c *= scale;
}

BasisSet::BasisSet(const Molecule& mol, const std::string& basis_name)
    : name_(basis_name) {
  std::size_t offset = 0;
  for (std::size_t ai = 0; ai < mol.atoms().size(); ++ai) {
    const Atom& atom = mol.atoms()[ai];
    const ElementBasisDef def = lookup_basis(basis_name, atom.z);
    for (const ShellDef& sd : def.shells) {
      Shell shell;
      shell.l = sd.l;
      shell.atom = ai;
      shell.center = atom.position;
      shell.exponents = sd.exponents;
      shell.coefficients = sd.coefficients;
      shell.sph_offset = offset;

      // Fold the primitive normalization into the coefficients, then scale
      // so the contracted x^l component has unit self-overlap.
      normalize_shell(shell);

      offset += shell.num_sph();
      max_l_ = std::max(max_l_, shell.l);
      shells_.push_back(std::move(shell));
    }
  }
  nbf_ = offset;
}

void BasisAnchor::attach(const void* owner, std::shared_ptr<const void> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  attached_.emplace_back(owner, std::move(data));
}

void BasisAnchor::detach(const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(attached_, [owner](const auto& a) { return a.first == owner; });
}

std::vector<std::vector<std::size_t>> BasisSet::shells_by_l() const {
  std::vector<std::vector<std::size_t>> groups(max_l_ + 1);
  for (std::size_t i = 0; i < shells_.size(); ++i) {
    groups[shells_[i].l].push_back(i);
  }
  return groups;
}

}  // namespace mako
