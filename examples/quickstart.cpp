// Quickstart: compute the Hartree-Fock energy of water with Mako.
//
//   $ ./quickstart [path/to/molecule.xyz]
//
// Demonstrates the minimal public API: build a molecule, configure the
// engine, run a single-point energy, print the artifact-style report.
#include <cstdio>
#include <iostream>

#include "chem/builders.hpp"
#include "core/mako.hpp"

int main(int argc, char** argv) {
  // Load a molecule from an XYZ file, or fall back to built-in water.
  mako::Molecule mol;
  if (argc > 1) {
    mol = mako::Molecule::from_xyz_file(argv[1]);
    std::printf("loaded %zu atoms from %s\n", mol.size(), argv[1]);
  } else {
    mol = mako::make_water();
    std::printf("using built-in water molecule\n");
  }

  // Configure Mako: basis set and functional.
  mako::MakoOptions options;
  options.basis = "sto-3g";
  options.functional = "hf";

  mako::MakoEngine engine(options);
  const mako::MakoReport report = engine.compute_energy(mol);

  std::cout << report.summary();

  // The converged orbital energies are available for downstream analysis.
  std::printf("\noccupied orbital energies (Eh):");
  const int nocc = mol.num_electrons() / 2;
  for (int i = 0; i < nocc; ++i) {
    std::printf(" %.4f", report.scf.orbital_energies[i]);
  }
  std::printf("\n");
  return 0;
}
