#include "core/batch.hpp"

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "basis/basis_set.hpp"
#include "obs/trace.hpp"
#include "scf/fock_plan.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mako {

namespace {

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

/// Geometry-only fingerprint: charge is deliberately excluded so an anion and
/// its neutral parent (identical shells) share one pooled BasisSet and hence
/// one FockPlan.
std::uint64_t molecule_fingerprint(const Molecule& mol) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const std::size_t n = mol.size();
  fnv1a(h, &n, sizeof n);
  for (const Atom& a : mol.atoms()) {
    fnv1a(h, &a.z, sizeof a.z);
    fnv1a(h, a.position.data(), 3 * sizeof(double));
  }
  return h;
}

[[noreturn]] void manifest_error(const std::string& what) {
  throw InputError(FaultKind::kInvalidInput, "batch manifest: " + what);
}

FaultMode parse_fault_mode(const std::string& mode) {
  if (mode == "nan") return FaultMode::kNaN;
  if (mode == "scale") return FaultMode::kScale;
  if (mode == "drop") return FaultMode::kDrop;
  manifest_error("unknown fault_mode '" + mode + "' (nan|scale|drop)");
}

GridSpec parse_grid(const std::string& grid) {
  if (grid == "coarse") return GridSpec::coarse();
  if (grid == "standard") return GridSpec::standard();
  if (grid == "fine") return GridSpec::fine();
  manifest_error("unknown grid '" + grid + "' (coarse|standard|fine)");
}

/// Applies the keys of one manifest object (the shared "defaults" object or
/// one job entry) onto `spec`.  Unknown keys are errors — a typo silently
/// falling back to a default would make "the batch ran" meaningless.
void apply_manifest_keys(const json::Value& obj, BatchJobSpec& spec) {
  for (const auto& [key, value] : obj.members()) {
    if (key == "name") {
      spec.name = value.as_string();
    } else if (key == "xyz") {
      spec.xyz_path = value.as_string();
    } else if (key == "charge") {
      spec.charge = value.as_int();
    } else if (key == "basis") {
      spec.options.basis = value.as_string();
    } else if (key == "xc") {
      spec.options.functional = value.as_string();
    } else if (key == "quantize") {
      spec.options.quantization = value.as_bool();
    } else if (key == "precision") {
      // Validated eagerly so a typo fails at manifest parse, not mid-batch.
      spec.options.precision = value.as_string();
      (void)parse_precision_mode(spec.options.precision);
    } else if (key == "precision_ladder") {
      spec.options.precision_ladder = value.as_bool();
    } else if (key == "grid") {
      spec.options.grid = parse_grid(value.as_string());
    } else if (key == "iterations") {
      spec.options.fixed_iterations = value.as_int();
    } else if (key == "max_iterations") {
      spec.options.max_iterations = value.as_int();
    } else if (key == "convergence") {
      spec.options.convergence = value.as_number();
    } else if (key == "batch_size") {
      spec.options.batch_size = static_cast<std::size_t>(value.as_int());
    } else if (key == "checkpoint") {
      spec.options.durability.checkpoint_path = value.as_string();
    } else if (key == "checkpoint_interval") {
      spec.options.durability.checkpoint_interval = value.as_int();
    } else if (key == "restore") {
      spec.options.durability.restore_path = value.as_string();
    } else if (key == "max_seconds") {
      spec.options.durability.max_seconds = value.as_number();
    } else if (key == "watchdog_seconds") {
      spec.options.watchdog_seconds = value.as_number();
    } else if (key == "incremental") {
      spec.incremental = value.as_bool();
    } else if (key == "incremental_rebuild_period") {
      spec.incremental_rebuild_period = value.as_int();
    } else if (key == "fault_site") {
      spec.fault_site = value.as_string();
    } else if (key == "fault_mode") {
      spec.fault.mode = parse_fault_mode(value.as_string());
    } else if (key == "fault_magnitude") {
      spec.fault.magnitude = value.as_number();
    } else if (key == "fault_trigger_after") {
      spec.fault.trigger_after = value.as_int();
    } else if (key == "fault_max_fires") {
      spec.fault.max_fires = value.as_int();
    } else {
      manifest_error("unknown key '" + key + "'");
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::vector<BatchJobSpec> BatchScheduler::load_manifest(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    manifest_error("cannot open '" + path + "'");
  }
  std::stringstream ss;
  ss << in.rdbuf();

  json::Value doc;
  try {
    doc = json::Value::parse(ss.str());
  } catch (const json::ParseError& e) {
    manifest_error("'" + path + "' line " + std::to_string(e.line()) +
                   " col " + std::to_string(e.column()) + ": " + e.what());
  }
  if (!doc.is_object()) manifest_error("top level must be an object");

  BatchJobSpec defaults;
  const json::Value* defaults_obj = doc.find("defaults");
  if (defaults_obj != nullptr) {
    if (!defaults_obj->is_object()) manifest_error("'defaults' must be an object");
    apply_manifest_keys(*defaults_obj, defaults);
    if (!defaults.name.empty() || !defaults.xyz_path.empty()) {
      manifest_error("'defaults' may not set per-job 'name'/'xyz'");
    }
  }

  const json::Value* jobs_obj = doc.find("jobs");
  if (jobs_obj == nullptr || !jobs_obj->is_array()) {
    manifest_error("'jobs' array is required");
  }
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key != "defaults" && key != "jobs") {
      manifest_error("unknown top-level key '" + key + "'");
    }
  }

  // Relative xyz paths resolve against the manifest's directory, so a
  // manifest can travel with its geometries.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : path.substr(0, slash + 1);

  std::vector<BatchJobSpec> jobs;
  jobs.reserve(jobs_obj->items().size());
  for (const json::Value& entry : jobs_obj->items()) {
    if (!entry.is_object()) manifest_error("each job must be an object");
    BatchJobSpec spec = defaults;
    apply_manifest_keys(entry, spec);
    if (spec.xyz_path.empty()) {
      manifest_error("job '" + spec.name + "' has no 'xyz' geometry");
    }
    if (spec.xyz_path.front() != '/') spec.xyz_path = dir + spec.xyz_path;
    if (spec.name.empty()) {
      spec.name = "job" + std::to_string(jobs.size());
    }
    jobs.push_back(std::move(spec));
  }
  if (jobs.empty()) manifest_error("'jobs' is empty");
  return jobs;
}

BatchScheduler::BatchScheduler(BatchOptions options)
    : options_(std::move(options)),
      context_(ExecutionContextOptions{.ranks = options_.ranks}) {}

std::shared_ptr<const BasisSet> BatchScheduler::pooled_basis(
    const Molecule& mol, const std::string& basis_name) {
  const auto key = std::make_pair(molecule_fingerprint(mol), basis_name);
  {
    std::lock_guard<std::mutex> lock(basis_mutex_);
    auto it = basis_pool_.find(key);
    if (it != basis_pool_.end()) return it->second;
  }
  // Build outside the lock (basis instantiation normalizes every shell);
  // racing builders of the same basis keep the first inserted instance so
  // every job sees one BasisSet — whose anchor is the FockPlanCache key.
  auto basis = std::make_shared<const BasisSet>(mol, basis_name);
  std::lock_guard<std::mutex> lock(basis_mutex_);
  return basis_pool_.try_emplace(key, std::move(basis)).first->second;
}

BatchJobResult BatchScheduler::run_one(const BatchJobSpec& spec,
                                       CancelToken& batch_token) {
  BatchJobResult out;
  out.name = spec.name;
  Timer timer;
  try {
    MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "batch.job");

    Molecule mol = spec.molecule.size() > 0
                       ? spec.molecule
                       : Molecule::from_xyz_file(spec.xyz_path);
    mol.set_charge(spec.charge);
    const std::shared_ptr<const BasisSet> basis =
        pooled_basis(mol, spec.options.basis);
    out.nbf = basis->nbf();

    // Per-job isolation: own token (chained under the batch token) on an
    // ExecutionContext view sharing every cache of the batch context.
    CancelToken job_token;
    job_token.link_parent(&batch_token);
    ExecutionContext job_ctx(context_, job_token);

    ScfOptions scf = scf_options_from(spec.options);
    scf.incremental_fock = spec.incremental;
    scf.incremental_rebuild_period = spec.incremental_rebuild_period;

    out.scf = run_scf(mol, *basis, scf, &job_ctx);
    out.ran = true;
    out.health = out.scf.health;
    out.exit_code = exit_code_for(out.health);
  } catch (const std::exception& e) {
    // The job is the failure domain: a bad geometry file, an unknown basis,
    // or an odd electron count rejects this slot and nothing else.
    out.ran = false;
    out.error = e.what();
    out.exit_code = 1;
  }
  out.seconds = timer.seconds();
  return out;
}

std::vector<BatchJobResult> BatchScheduler::run(
    const std::vector<BatchJobSpec>& jobs) {
  if (jobs.empty()) {
    throw InputError(FaultKind::kInvalidInput, "batch: empty job list");
  }
  stats_ = BatchRunStats{};
  {
    std::lock_guard<std::mutex> lock(basis_mutex_);
    basis_pool_.clear();
  }

  FockPlanCache& fock_cache = context_.components().get<FockPlanCache>();
  const std::int64_t builds_before = fock_cache.builds();
  const std::int64_t hits_before = fock_cache.hits();

  // Arm requested fault sites for the whole batch; disarmed before return.
  std::vector<std::string> armed_sites;
  for (const BatchJobSpec& spec : jobs) {
    if (!spec.fault_site.empty()) {
      FaultInjector::instance().arm(spec.fault_site, spec.fault);
      armed_sites.push_back(spec.fault_site);
    }
  }

  // Cancellation chain: process (or caller) -> batch -> each job.  SIGINT on
  // the process token stops every job; one job's deadline stops only itself.
  CancelToken batch_token;
  batch_token.link_parent(options_.cancel != nullptr ? options_.cancel
                                                     : &CancelToken::process());

  std::vector<BatchJobResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto drain = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      results[i] = run_one(jobs[i], batch_token);
    }
  };

  std::size_t drivers = options_.concurrency > 0
                            ? static_cast<std::size_t>(options_.concurrency)
                            : 1;
  if (drivers > jobs.size()) drivers = jobs.size();

  Timer wall;
  log_info("batch: %zu jobs, %zu in flight", jobs.size(), drivers);
  if (drivers == 1) {
    drain();
  } else {
    // Driver threads only sequence jobs; the heavy loops inside run_scf land
    // on the shared ThreadPool (cooperatively, so drivers drain chunks too).
    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (std::size_t t = 0; t < drivers; ++t) threads.emplace_back(drain);
    for (std::thread& t : threads) t.join();
  }
  stats_.wall_seconds = wall.seconds();

  for (const std::string& site : armed_sites) {
    FaultInjector::instance().disarm(site);
  }

  stats_.jobs_total = static_cast<int>(jobs.size());
  for (const BatchJobResult& r : results) {
    if (!r.ran) {
      ++stats_.jobs_error;
      continue;
    }
    switch (r.health) {
      case Health::kOk:
        ++stats_.jobs_ok;
        break;
      case Health::kRecovered:
        ++stats_.jobs_recovered;
        break;
      case Health::kNotConverged:
        ++stats_.jobs_not_converged;
        break;
      case Health::kFault:
        ++stats_.jobs_fault;
        break;
      case Health::kDeadlineExceeded:
        ++stats_.jobs_deadline;
        break;
      case Health::kCancelled:
        ++stats_.jobs_cancelled;
        break;
    }
    stats_.scf_seconds += r.seconds;
    for (const obs::IterationTelemetry& it : r.scf.telemetry) {
      stats_.eri_seconds += it.eri_seconds;
      stats_.digest_seconds += it.digest_seconds;
      stats_.route_seconds += it.route_seconds;
    }
  }
  stats_.jobs_per_second =
      stats_.wall_seconds > 0.0
          ? static_cast<double>(stats_.jobs_total) / stats_.wall_seconds
          : 0.0;
  stats_.fock_plan_builds = fock_cache.builds() - builds_before;
  stats_.fock_plan_hits = fock_cache.hits() - hits_before;
  stats_.eri_plans = context_.plans().size();

  log_info(
      "batch: done in %.3fs (%.2f jobs/s); fock plans: %lld built, %lld hit",
      stats_.wall_seconds, stats_.jobs_per_second,
      static_cast<long long>(stats_.fock_plan_builds),
      static_cast<long long>(stats_.fock_plan_hits));
  return results;
}

std::string batch_results_json(const std::vector<BatchJobResult>& results,
                               const BatchRunStats& stats) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << "{\n  \"schema\": \"mako.batch.v1\",\n";
  out << "  \"fault_injection_compiled_in\": "
      << (FaultInjector::compiled_in() ? "true" : "false") << ",\n";
  out << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BatchJobResult& r = results[i];
    out << "    {\"name\": \"" << json_escape(r.name) << "\", ";
    out << "\"ran\": " << (r.ran ? "true" : "false") << ", ";
    if (r.ran) {
      out << "\"health\": \"" << to_string(r.health) << "\", ";
    } else {
      out << "\"health\": \"input_error\", ";
    }
    out << "\"exit_code\": " << r.exit_code << ", ";
    out.precision(6);
    out << "\"seconds\": " << r.seconds << ", ";
    out << "\"nbf\": " << r.nbf << ", ";
    out << "\"iterations\": " << (r.ran ? r.scf.iterations : 0) << ", ";
    out << "\"converged\": " << (r.ran && r.scf.converged ? "true" : "false")
        << ", ";
    out.precision(12);
    out << "\"energy\": " << (r.ran ? r.scf.energy : 0.0) << ", ";
    out << "\"recovered\": " << (r.ran && r.scf.recovered() ? "true" : "false")
        << ", ";
    out << "\"error\": \"" << json_escape(r.error) << "\"}";
    out << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"stats\": {\n";
  out.precision(6);
  out << "    \"wall_seconds\": " << stats.wall_seconds << ",\n";
  out << "    \"jobs_per_second\": " << stats.jobs_per_second << ",\n";
  out << "    \"jobs_total\": " << stats.jobs_total << ",\n";
  out << "    \"jobs_ok\": " << stats.jobs_ok << ",\n";
  out << "    \"jobs_recovered\": " << stats.jobs_recovered << ",\n";
  out << "    \"jobs_not_converged\": " << stats.jobs_not_converged << ",\n";
  out << "    \"jobs_fault\": " << stats.jobs_fault << ",\n";
  out << "    \"jobs_deadline\": " << stats.jobs_deadline << ",\n";
  out << "    \"jobs_cancelled\": " << stats.jobs_cancelled << ",\n";
  out << "    \"jobs_error\": " << stats.jobs_error << ",\n";
  out << "    \"fock_plan_builds\": " << stats.fock_plan_builds << ",\n";
  out << "    \"fock_plan_hits\": " << stats.fock_plan_hits << ",\n";
  out << "    \"eri_plans\": " << stats.eri_plans << ",\n";
  out << "    \"scf_seconds\": " << stats.scf_seconds << ",\n";
  out << "    \"eri_seconds\": " << stats.eri_seconds << ",\n";
  out << "    \"digest_seconds\": " << stats.digest_seconds << ",\n";
  out << "    \"route_seconds\": " << stats.route_seconds << "\n";
  out << "  }\n}\n";
  return out.str();
}

}  // namespace mako
