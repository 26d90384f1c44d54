#include "dataset.hpp"

#include <cmath>

#include "chem/builders.hpp"
#include "chem/elements.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

Molecule make_h2() {
  Molecule m;
  m.add_atom(1, 0, 0, 0);
  m.add_atom(1, 0, 0, 0.74 * kBohrPerAngstrom);
  return m;
}

Molecule make_methane() {
  Molecule m;
  const double d = 1.09 * kBohrPerAngstrom / std::sqrt(3.0);
  m.add_atom(6, 0, 0, 0);
  m.add_atom(1, d, d, d);
  m.add_atom(1, d, -d, -d);
  m.add_atom(1, -d, d, -d);
  m.add_atom(1, -d, -d, d);
  return m;
}

Molecule make_ammonia() {
  Molecule m;
  const double rnh = 1.012 * kBohrPerAngstrom;
  m.add_atom(7, 0, 0, 0);
  for (int k = 0; k < 3; ++k) {
    const double phi = 2.0 * 3.14159265358979323846 * k / 3.0;
    m.add_atom(1, rnh * 0.94 * std::cos(phi), rnh * 0.94 * std::sin(phi),
               -rnh * 0.33);
  }
  return m;
}

Molecule make_hf() {
  Molecule m;
  m.add_atom(9, 0, 0, 0);
  m.add_atom(1, 0, 0, 0.92 * kBohrPerAngstrom);
  return m;
}

Molecule make_co() {
  Molecule m;
  m.add_atom(6, 0, 0, 0);
  m.add_atom(8, 0, 0, 1.128 * kBohrPerAngstrom);
  return m;
}

Molecule make_n2() {
  Molecule m;
  m.add_atom(7, 0, 0, 0);
  m.add_atom(7, 0, 0, 1.098 * kBohrPerAngstrom);
  return m;
}

Molecule make_methanol() {
  Molecule m;
  m.add_atom(6, 0, 0, 0);
  m.add_atom(8, 0, 0, 1.43 * kBohrPerAngstrom);
  m.add_atom(1, 0.90 * kBohrPerAngstrom, 0.40 * kBohrPerAngstrom,
             1.75 * kBohrPerAngstrom);
  const double d = 1.09 * kBohrPerAngstrom / std::sqrt(3.0);
  m.add_atom(1, d, d, -d);
  m.add_atom(1, -d, d, -d);  // geometry is approximate but clash-free
  m.add_atom(1, 0, -1.03 * kBohrPerAngstrom, -0.36 * kBohrPerAngstrom);
  return m;
}

Molecule make_h2s() {
  Molecule m;
  const double r = 1.34 * kBohrPerAngstrom;
  m.add_atom(16, 0, 0, 0);
  m.add_atom(1, r * 0.78, 0, r * 0.62);
  m.add_atom(1, -r * 0.78, 0, r * 0.62);
  return m;
}

}  // namespace

std::vector<DatasetEntry> build_accuracy_dataset() {
  std::vector<DatasetEntry> ds;
  ds.reserve(220);

  // Curated small molecules.
  ds.push_back({"H2", make_h2()});
  ds.push_back({"H2O", make_water()});
  ds.push_back({"CH4", make_methane()});
  ds.push_back({"NH3", make_ammonia()});
  ds.push_back({"HF", make_hf()});
  ds.push_back({"CO", make_co()});
  ds.push_back({"N2", make_n2()});
  ds.push_back({"CH3OH", make_methanol()});
  ds.push_back({"H2S", make_h2s()});

  // Alkane ladder (PubChem-style organics of growing size).
  for (std::size_t n = 1; n <= 40; ++n) {
    ds.push_back({"alkane_C" + std::to_string(n), make_alkane(n)});
  }

  // Water clusters (compact/globular structures).
  for (std::size_t n = 1; n <= 40; ++n) {
    ds.push_back({"water_" + std::to_string(n),
                  make_water_cluster(n, static_cast<unsigned>(100 + n))});
  }

  // Polyglycine chains (linear structures).
  for (std::size_t n = 1; n <= 30; ++n) {
    ds.push_back({"gly_" + std::to_string(n), make_polyglycine(n)});
  }

  // tmQM-style transition-metal aqua complexes (Sc..Zn with 2/4/6 donors).
  for (int z = 21; z <= 30; ++z) {
    for (int k : {2, 4, 6}) {
      Molecule m = make_metal_complex(z, k, 2.0);
      // tmQM complexes are closed-shell; pick a charge making N_e even.
      if (m.num_electrons() % 2 != 0) m.set_charge(1);
      ds.push_back({std::string("tm_") + element_symbol(z) + "_L" +
                        std::to_string(k),
                    m});
    }
  }

  // Mixed perturbed-water suite: diverse non-symmetric geometries.
  Rng rng(2026);
  for (int i = 0; i < 60; ++i) {
    Molecule m = make_water_cluster(2 + (i % 5), 500 + i);
    ds.push_back({"mixed_" + std::to_string(i), m});
  }

  return ds;
}

std::vector<DatasetEntry> build_accuracy_dataset_small(
    std::size_t max_entries) {
  auto full = build_accuracy_dataset();
  std::vector<DatasetEntry> out;
  if (max_entries == 0) return out;
  const std::size_t stride = std::max<std::size_t>(1, full.size() / max_entries);
  for (std::size_t i = 0; i < full.size() && out.size() < max_entries;
       i += stride) {
    out.push_back(full[i]);
  }
  return out;
}

}  // namespace mako
