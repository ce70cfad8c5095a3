// duet_cli — command-line front door to the engine.
//
//   duet_cli --model wide-deep                 # schedule + report
//   duet_cli --model mtdnn --scheduler random  # pick the scheduler
//   duet_cli --relay model.relay               # load a textual Relay module
//   duet_cli --model siamese --runs 2000       # latency distribution
//   duet_cli --model wide-deep --trace out.json --dot out.dot
//   duet_cli verify wide-deep                  # lint one model end to end
//   duet_cli verify --all                      # lint the whole model zoo
//   duet_cli analyze wide-deep                 # liveness + memory + race report
//   duet_cli analyze --all --json              # ... machine-readable, whole zoo
//   duet_cli lint wide-deep                    # unified static-analysis suite
//   duet_cli lint --all --sarif out.sarif      # whole zoo + serve protocol, SARIF
//   duet_cli trace wide-deep --out traces/     # telemetry trace + stats JSON
//   duet_cli trace --all --out traces/         # ... for the whole zoo
//   duet_cli stats mtdnn                       # drift tables + metric counters
//   duet_cli stats --all --json                # machine-readable, whole zoo
//   duet_cli schedule wide-deep                # disk-cached schedule
//   duet_cli schedule --all                    # whole zoo; prints cache hit rate
//   duet_cli cache stats                       # inspect the on-disk profile cache
//   duet_cli cache clear                       # drop it
//   duet_cli serve-bench wide-deep --workers 4 # serving throughput + tails
//   duet_cli serve-bench --all --json          # machine-readable, whole zoo
//
// `verify` runs the static verification layer (src/analysis) over the full
// pipeline — raw graph, every compiler pass, partition, placement, plan —
// and exits nonzero with pass/rule/node diagnostics on any violation.
//
// `analyze` runs the dataflow suite over the built plan: per-value liveness
// intervals, the packed arena layout versus the naive per-tensor footprint,
// and the happens-before race check. Single-model runs print the full
// interval and slot tables; exits nonzero when a device's arena exceeds its
// naive footprint or any race diagnostic fires.
//
// `lint` runs the unified static-analysis suite: the graph verifier, one run
// of the plan checker's standard table (partition/placement/plan validators,
// happens-before race checker, and the lint passes — boundary types, sync
// elision, redundant transfers, dead subgraphs, plan-swap arena audit with a
// recalibration-style flipped plan as the retired snapshot), plus the
// small-scope serve-protocol model checker. Diagnostics are deterministic
// (sorted by severity/rule/artifact/subgraph/node); --json emits one
// validated document per artifact and --sarif writes one SARIF 2.1.0 log
// for CI annotation. Exits nonzero iff any error-severity finding fires.
//
// `trace` enables the telemetry layer, runs the full pipeline plus one
// numeric inference on each executor (SimExecutor and ThreadedExecutor), and
// writes <model>.trace.json (merged Chrome trace: wall-clock spans from
// compiler/profiler/scheduler/plan/executors next to the modeled virtual
// timeline) and <model>.stats.json (metrics registry + predicted-vs-observed
// drift for both executors). Both documents are JSON-validated before they
// are written. Fallback is disabled so the heterogeneous plan (and its
// transfers) is what gets traced.
//
// `stats` runs the same pipeline and prints the per-subgraph drift tables
// and headline counters to stdout (--json for one JSON document per model).
//
// `serve-bench` drives the serving runtime (src/serve): it runs real
// traffic through a single-model FleetServer (a one-model registry with
// max_batch 1: N worker threads over the shared plan, bounded-queue
// admission, one online recalibration pass), then replays deterministic
// open-loop Poisson traces through the virtual-time twin (simulate_fleet)
// at a nominal (50% utilization) and a peak (2x capacity) offered load.
// Reports per-leg throughput, p50/p95/p99 sojourn, shed and reject
// rates, and the placement-swap count; --json emits one document per model,
// --out writes a Chrome trace with one span per served request, and
// --metrics-out writes one Prometheus text exposition of the metrics
// registry after the run.
//
// `flight` exercises the always-on flight recorder end to end: it serves a
// healthy burst through a single-model FleetServer, then a seeded
// deadline-miss storm (requests whose deadlines are already expired at
// admission), which trips the recorder's burst trigger mid-run and writes
// the post-mortem dump — <dir>/<model>/flight_trace.json (Chrome trace with
// per-request flow arcs) and flight_summary.json — exactly as a production
// incident would. Exits nonzero when no dump landed.
//
// `schedule` runs the pipeline with the persistent profile cache enabled
// (default directory: $DUET_CACHE_DIR or .duet-cache) and reports the cache
// traffic: the first run profiles each structural equivalence class once and
// writes the cache; a second run over the same calibration hits 100% and
// skips profiling entirely. `cache stats` / `cache clear` inspect and delete
// that on-disk file; `--no-cache` disables both the compile and profile
// caches for the run (A/B baseline).
//
// Every command documents its flags: `duet_cli <command> --help`.

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/graph_verifier.hpp"
#include "analysis/lint/lint.hpp"
#include "analysis/lint/rules.hpp"
#include "analysis/lint/sarif.hpp"
#include "analysis/liveness.hpp"
#include "analysis/model_check/explorer.hpp"
#include "analysis/race_checker.hpp"
#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "compiler/compile_cache.hpp"
#include "compiler/cost_model.hpp"
#include "duet/engine.hpp"
#include "profile/profile_cache.hpp"
#include "duet/report.hpp"
#include "graph/dot.hpp"
#include "models/model_zoo.hpp"
#include "relay/relay.hpp"
#include "relay/serialize.hpp"
#include "serve/batching.hpp"
#include "serve/fleet.hpp"
#include "serve/model_registry.hpp"
#include "serve/simulator.hpp"
#include "serve/workload.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/slo_monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace {

// --- command table -------------------------------------------------------------
//
// Every subcommand is one entry of `commands()`: name, operands, flag specs
// and handler. One parser serves every entry and --help is generated from the
// same table, so help text and parser cannot disagree. Help exits 0; a usage
// error exits 2, so scripts and CI can tell "misuse" from "asked for the
// manual".

const char* program = "duet_cli";  // argv[0], for usage text

// What a flag takes from the command line.
enum class Value {
  kNone,  // a switch
  kString,
  kInt,
  kDouble,
  kModels,     // comma-separated zoo names, appended to the model list
  kRelayFile,  // a Relay file, run after the zoo models; may replace them
};

struct Flag {
  const char* name;
  Value value = Value::kNone;
  const char* metavar = nullptr;  // the value's name in the synopsis
  double min = -std::numeric_limits<double>::infinity();  // numeric flags
};

struct Args;

struct Command {
  std::string name;      // empty: the default report (no subcommand word)
  std::string operands;  // positional synopsis; empty: none accepted
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

// Positionals are zoo model names, and --all is accepted, exactly for the
// commands whose operands read like this.
const char kModelOperands[] = "<model>... | --all";

// One parsed command line. The parser has validated every value, so the
// typed getters cannot fail.
struct Args {
  const Command* command = nullptr;
  std::vector<std::string> models;       // zoo names, in command-line order
  std::vector<std::string> relay_files;  // Value::kRelayFile flags
  std::vector<std::string> words;        // operands that are not models
  std::map<std::string, std::vector<std::string>> values;  // per flag, in order

  bool has(const std::string& flag) const { return values.count(flag) != 0; }
  std::string get(const std::string& flag, const std::string& fallback = "") const {
    const auto it = values.find(flag);
    return it == values.end() ? fallback : it->second.back();
  }
  int get_int(const std::string& flag, int fallback) const {
    return has(flag) ? std::stoi(get(flag)) : fallback;
  }
  double get_double(const std::string& flag, double fallback) const {
    return has(flag) ? std::stod(get(flag)) : fallback;
  }
};

[[noreturn]] void usage_error(const Command& command);

// Strict numeric flag parsing: the whole token must parse and respect the
// flag's minimum. Failures are a usage error (exit 2), never an uncaught
// std::stoi abort or a negative count wrapped through size_t.
void check_number(const Command& command, const Flag& flag,
                  const std::string& text) {
  const bool integral = flag.value == Value::kInt;
  double value = 0.0;
  size_t pos = 0;
  try {
    value = integral ? std::stoi(text, &pos) : std::stod(text, &pos);
  } catch (const std::exception&) {
  }
  if (pos == 0 || pos != text.size()) {
    std::fprintf(stderr, "invalid %s for %s: \"%s\"\n",
                 integral ? "integer" : "number", flag.name, text.c_str());
    usage_error(command);
  }
  if (value < flag.min) {
    std::fprintf(stderr, "%s must be at least %g, got %s\n", flag.name,
                 flag.min, text.c_str());
    usage_error(command);
  }
}

void append_csv_models(const std::string& csv, std::vector<std::string>* names) {
  std::string token;
  std::istringstream in(csv);
  while (std::getline(in, token, ',')) {
    if (!token.empty()) names->push_back(token);
  }
}

// The one model-list resolver behind every "<model>... | --all" subcommand
// (and serve-bench's comma-separated --models): validation of the final
// list, after the parser expanded --all to the whole zoo. An empty list or a
// name the zoo does not know is a usage error — exit 2 with the valid names
// printed — never a mid-run throw that exits 1 and looks like a runtime
// failure to CI.
std::vector<std::string> resolve_model_list(const Command& command,
                                            std::vector<std::string> names,
                                            bool allow_empty) {
  const std::vector<std::string>& zoo = duet::models::zoo_model_names();
  if (names.empty()) {
    if (allow_empty) return names;
    std::fprintf(stderr, "no models named (pass <model>... or --all)\n");
    usage_error(command);
  }
  for (const std::string& name : names) {
    if (std::find(zoo.begin(), zoo.end(), name) == zoo.end()) {
      std::fprintf(stderr, "unknown model: %s\nknown models:", name.c_str());
      for (const std::string& known : zoo) {
        std::fprintf(stderr, " %s", known.c_str());
      }
      std::fprintf(stderr, "\n");
      usage_error(command);
    }
  }
  return names;
}

duet::DuetOptions engine_options(const Args& a) {
  duet::DuetOptions options;
  options.scheduler = a.get("--scheduler", options.scheduler);
  return options;
}

// Prints one JSON document per line after validating it; an invalid
// document is reported on stderr instead.
bool print_json(const std::string& what, const std::string& doc) {
  std::string err;
  if (!duet::telemetry::validate_json(doc, &err)) {
    std::fprintf(stderr, "%s: invalid JSON produced: %s\n", what.c_str(),
                 err.c_str());
    return false;
  }
  std::printf("%s\n", doc.c_str());
  return true;
}

// Writes `text` to `path`, creating its directory first.
bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  out << text;
  return out.good();
}

// Lints one model through the whole pipeline. Returns true when every stage
// verifies clean; prints structured diagnostics otherwise.
bool verify_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  const DuetOptions options = engine_options(a);
  std::printf("verify %-12s ", label.c_str());
  std::fflush(stdout);

  // Stage 1: raw graph well-formedness.
  VerifyResult graph_result = verify_graph(model);
  if (!graph_result.ok()) {
    std::printf("FAIL (graph: %zu violations)\n%s", graph_result.error_count(),
                graph_result.to_string().c_str());
    return false;
  }

  // Stage 2: the whole-model pass pipeline in checked mode (the verifier
  // runs after every pass inside PassManager::run). DuetEngine then compiles
  // per-subgraph with the same checked pipeline, partitions, schedules, and
  // runs the plan checker, throwing VerifyError on any error.
  try {
    ScopedVerification checked(true);
    PassManager::standard(options.compile).run(model);
    DuetEngine engine(std::move(model), options);
    std::printf(
        "OK  graph %zu nodes | %zu subgraphs | %s | %zu transfers | %zu warnings\n",
        engine.model().num_nodes(), engine.partition().subgraphs.size(),
        engine.report().fell_back ? "single-device" : "heterogeneous",
        engine.plan().transfers().size(), graph_result.warning_count());
    return true;
  } catch (const VerifyError& e) {
    std::printf("FAIL\n%s\n", e.what());
    return false;
  }
}

// Runs the dataflow analysis suite over one model's built plan. Returns true
// when the arena beats (or ties) the naive footprint on every device and the
// happens-before race check is clean. A single-model run additionally
// prints the full interval and slot tables; --json emits one validated
// document per model instead of the summary line.
bool analyze_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  const DuetOptions options = engine_options(a);
  const bool json = a.has("--json");
  const bool detail = !json && a.models.size() + a.relay_files.size() == 1;
  if (!json) {
    std::printf("analyze %-12s ", label.c_str());
    std::fflush(stdout);
  }
  try {
    ScopedVerification checked(true);
    DuetEngine engine(std::move(model), options);
    const ExecutionPlan& plan = engine.plan();
    const MemoryPlan* memory = plan.memory_plan();
    if (memory == nullptr) {
      std::printf(json ? "{\"model\":\"%s\",\"ok\":false,"
                         "\"error\":\"plan carries no memory plan\"}\n"
                       : "FAIL (plan carries no memory plan)\n",
                  telemetry::json_escape(label).c_str());
      return false;
    }

    bool ok = true;
    uint64_t arena_total = 0;
    uint64_t naive_total = 0;
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      const DeviceKind dev = static_cast<DeviceKind>(d);
      arena_total += memory->arena_bytes(dev);
      naive_total += memory->naive_bytes(dev);
      // Acceptance bound: packing must never regress past one-buffer-per-
      // tensor on any device.
      if (memory->arena_bytes(dev) > memory->naive_bytes(dev)) ok = false;
    }
    const VerifyResult races = verify_races(plan);
    ok &= races.ok();

    const double reduction =
        naive_total > 0
            ? 100.0 * (1.0 - static_cast<double>(arena_total) /
                                 static_cast<double>(naive_total))
            : 0.0;
    if (json) {
      std::string doc = "{\"model\":\"" + telemetry::json_escape(label) +
                        "\",\"ok\":" + (ok ? "true" : "false");
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        const DeviceKind dev = static_cast<DeviceKind>(d);
        doc += std::string(",\"") + device_kind_name(dev) + "\":{\"arena_bytes\":" +
               std::to_string(memory->arena_bytes(dev)) + ",\"naive_bytes\":" +
               std::to_string(memory->naive_bytes(dev)) + "}";
      }
      doc += ",\"slots\":" + std::to_string(memory->slots().size());
      doc += ",\"saved_pct\":" + telemetry::json_number(reduction);
      doc += ",\"race_errors\":" + std::to_string(races.error_count()) + "}";
      return print_json("analyze " + label, doc) && ok;
    }
    std::printf("%s  arena %s vs naive %s (%.1f%% saved) | %zu slots | races: %zu\n",
                ok ? "OK " : "FAIL", human_bytes(arena_total).c_str(),
                human_bytes(naive_total).c_str(), reduction,
                memory->slots().size(), races.error_count());
    if (!races.ok()) std::printf("%s", races.to_string().c_str());
    if (detail) {
      const LivenessInfo live = analyze_liveness(plan);
      std::printf("%s", live.to_string(plan.parent()).c_str());
      std::printf("%s", memory->to_string(&plan.parent()).c_str());
    }
    return ok;
  } catch (const VerifyError& e) {
    if (json) {
      std::printf("{\"model\":\"%s\",\"ok\":false}\n",
                  telemetry::json_escape(label).c_str());
    } else {
      std::printf("FAIL\n%s\n", e.what());
    }
    return false;
  }
}

// --- lint ---------------------------------------------------------------------

// {"rule":...,"severity":...,"artifact":...,"subgraph":...,"node":...,...}
std::string diagnostic_json(const duet::Diagnostic& d) {
  using duet::telemetry::json_escape;
  std::string out = "{\"rule\":\"" + json_escape(d.rule) + "\"";
  out += std::string(",\"severity\":\"") + duet::severity_name(d.severity) + "\"";
  if (!d.location.artifact.empty()) {
    out += ",\"artifact\":\"" + json_escape(d.location.artifact) + "\"";
  }
  if (d.subgraph >= 0) out += ",\"subgraph\":" + std::to_string(d.subgraph);
  if (d.node != duet::kInvalidNode) out += ",\"node\":" + std::to_string(d.node);
  if (d.location.step >= 0) {
    out += ",\"step\":" + std::to_string(d.location.step);
  }
  if (!d.context.empty()) out += ",\"pass\":\"" + json_escape(d.context) + "\"";
  out += ",\"message\":\"" + json_escape(d.message) + "\"}";
  return out;
}

// "errors":N,"warnings":M,"diagnostics":[...]
std::string findings_json(const duet::VerifyResult& result) {
  std::string out = "\"errors\":" + std::to_string(result.error_count()) +
                    ",\"warnings\":" + std::to_string(result.warning_count()) +
                    ",\"diagnostics\":[";
  for (size_t i = 0; i < result.diagnostics().size(); ++i) {
    if (i != 0) out += ",";
    out += diagnostic_json(result.diagnostics()[i]);
  }
  return out + "]";
}

// The unified static-analysis suite over one model: the graph verifier plus
// one plan-checker run, collected (never thrown) so one run reports every
// finding. The plan-swap audit gets a recalibration-style flipped-placement
// plan as the retired snapshot.
duet::VerifyResult lint_model(const std::string& label, duet::Graph model,
                              duet::DuetOptions options) {
  using namespace duet;
  // Fallback would collapse the plan to one device and leave the transfer
  // passes nothing to check; the engine's own checked-mode hooks are off
  // because this run reports findings instead of throwing on the first.
  options.enable_fallback = false;
  VerifyResult all = verify_graph(model);
  ScopedVerification report_dont_throw(false);
  DuetEngine engine(std::move(model), options);

  Placement flipped = engine.plan().placement();
  flipped.flip(0);
  const ExecutionPlan previous = engine.build_plan_for(flipped);
  lint::LintInput input = lint::make_input(engine.plan());
  input.previous_memory = previous.memory_plan();
  all.merge(lint::LintSuite::standard().run(input));
  all.set_artifact(label);
  all.sort();
  return all;
}

// Parses a "--sym NAME=LO..HI" range spec. Returns false (leaving outputs
// untouched) on malformed input — the caller turns that into a usage error.
bool parse_sym_spec(const std::string& spec, std::string* name,
                    duet::symbolic::SymRange* range) {
  const size_t eq = spec.find('=');
  const size_t dots = spec.find("..");
  if (eq == std::string::npos || eq == 0 || dots == std::string::npos ||
      dots < eq + 2 || dots + 2 >= spec.size() + 1) {
    return false;
  }
  const std::string sym = spec.substr(0, eq);
  const std::string lo_text = spec.substr(eq + 1, dots - eq - 1);
  const std::string hi_text = spec.substr(dots + 2);
  if (lo_text.empty() || hi_text.empty()) return false;
  try {
    size_t pos = 0;
    const long long lo = std::stoll(lo_text, &pos);
    if (pos != lo_text.size()) return false;
    pos = 0;
    const long long hi = std::stoll(hi_text, &pos);
    if (pos != hi_text.size()) return false;
    if (lo < 1 || hi < lo) return false;
    *name = sym;
    range->lo = lo;
    range->hi = hi;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Applies every --sym NAME=LO..HI. The first spec names the dimension the
// scan/bind uses; later specs just declare additional ranges. Returns
// whether any spec was given.
bool apply_sym_specs(const Args& a, duet::symbolic::SymbolicOptions* sym_opts,
                     duet::symbolic::CrossoverOptions* x_opts) {
  const auto specs = a.values.find("--sym");
  if (specs == a.values.end()) return false;
  for (size_t i = 0; i < specs->second.size(); ++i) {
    const std::string& spec = specs->second[i];
    std::string name;
    duet::symbolic::SymRange range;
    if (!parse_sym_spec(spec, &name, &range)) {
      std::fprintf(stderr,
                   "invalid --sym spec \"%s\" (expected NAME=LO..HI with "
                   "1 <= LO <= HI)\n",
                   spec.c_str());
      usage_error(*a.command);
    }
    if (i == 0) {
      sym_opts->batch_symbol = name;
      x_opts->symbol = name;
      x_opts->lo = range.lo;
      x_opts->hi = range.hi;
    }
    sym_opts->domain[name] = range;
  }
  return true;
}

// `duet_cli shapes`: per-node shape table, concrete by default, symbolic
// (polynomials of the batch symbol) with --symbolic. Returns false when
// symbolic inference reports any error-severity diagnostic (warnings — e.g.
// a batch-monomorphic reshape — are reported but do not fail the command).
bool shapes_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  using telemetry::json_escape;
  symbolic::SymbolicOptions opts;
  symbolic::CrossoverOptions unused;
  const bool symbolic_mode = apply_sym_specs(a, &opts, &unused) || a.has("--symbolic");
  const bool json = a.has("--json");

  symbolic::SymbolicShapes sym;
  if (symbolic_mode) sym = symbolic::infer_symbolic(model, opts);
  const auto shape_text = [&](const Node& n) {
    return symbolic_mode
               ? sym.shapes[static_cast<size_t>(n.id)].to_string()
               : n.out_shape.to_string();
  };

  if (json) {
    std::string doc = "{\"model\":\"" + json_escape(label) +
                      "\",\"symbolic\":" + (symbolic_mode ? "true" : "false");
    if (symbolic_mode) {
      doc += ",\"domain\":{";
      bool first = true;
      for (const auto& [name, range] : sym.domain) {
        if (!first) doc += ",";
        first = false;
        doc += "\"" + json_escape(name) + "\":{\"lo\":" +
               std::to_string(range.lo) + ",\"hi\":" + std::to_string(range.hi) +
               "}";
      }
      doc += "}";
    }
    doc += ",\"nodes\":[";
    for (const Node& n : model.nodes()) {
      if (n.id != 0) doc += ",";
      doc += "{\"id\":" + std::to_string(n.id) + ",\"op\":\"" +
             json_escape(op_name(n.op)) + "\",\"name\":\"" +
             json_escape(n.name) + "\",\"shape\":\"" +
             json_escape(shape_text(n)) + "\",\"dtype\":\"" +
             json_escape(dtype_name(n.out_dtype)) + "\"}";
    }
    doc += "]," + findings_json(sym.diagnostics) + "}";
    return print_json("shapes " + label, doc) && sym.diagnostics.ok();
  }

  std::printf("shapes %s (%zu nodes%s)\n", label.c_str(), model.num_nodes(),
              symbolic_mode ? ", symbolic" : "");
  if (symbolic_mode) {
    for (const auto& [name, range] : sym.domain) {
      std::printf("  symbol %s in [%lld, %lld]\n", name.c_str(),
                  static_cast<long long>(range.lo),
                  static_cast<long long>(range.hi));
    }
  }
  for (const Node& n : model.nodes()) {
    std::printf("  %%%-4d %-18s %-24s %s %s\n", n.id, op_name(n.op),
                n.name.c_str(), shape_text(n).c_str(),
                dtype_name(n.out_dtype));
  }
  if (!sym.diagnostics.diagnostics().empty()) {
    std::printf("%s", sym.diagnostics.to_string().c_str());
  }
  return sym.diagnostics.ok();
}

// `duet_cli crossover`: optimize + partition the model like the engine
// would, then scan the batch symbol and report where the analytic CPU/GPU
// preference of each subgraph flips.
bool crossover_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  symbolic::SymbolicOptions sym_opts;
  symbolic::CrossoverOptions x_opts;
  apply_sym_specs(a, &sym_opts, &x_opts);
  const Graph optimized =
      PassManager::standard(CompileOptions::compiler_defaults()).run(std::move(model));
  const Partition partition = partition_phased(optimized);
  const symbolic::SymbolicShapes shapes =
      symbolic::infer_symbolic(optimized, sym_opts);
  const symbolic::CrossoverReport report =
      symbolic::analyze_crossover(optimized, partition, shapes, x_opts);
  if (a.has("--json")) {
    if (!print_json("crossover " + label, report.to_json())) return false;
  } else {
    std::printf("%s", report.to_string().c_str());
  }
  return shapes.diagnostics.ok();
}

// One full telemetry capture: enables the layer, runs the whole pipeline
// (partition, profile, schedule, plan), then one numeric inference per
// executor — SimExecutor (modeled virtual time) and ThreadedExecutor (real
// threads, wall clock) — and snapshots spans, metrics, and drift.
struct TelemetryCapture {
  duet::DriftReport sim_drift;
  duet::DriftReport threaded_drift;
  std::string trace_json;    // merged Chrome trace (spans + modeled timeline)
  std::string metrics_json;  // registry snapshot
  std::string serve_json;    // serve-plane counters (empty without a burst)
};

// A single-model server is a configuration of the fleet: `model` as the
// only entry (index 0) of a registry with max_batch 1, fronted by a
// FleetServer with its one default tenant (index 0).
duet::serve::ModelRegistry single_model_registry(
    const std::string& label, duet::Graph model,
    const duet::DuetOptions& engine) {
  duet::serve::ModelRegistryOptions options;
  options.engine = engine;
  options.max_batch = 1;
  duet::serve::ModelRegistry registry(options);
  registry.register_model(
      label, [model = std::move(model)](int64_t) { return model; });
  return registry;
}

// `serve_burst` additionally pushes a short real-threaded burst through a
// single-model server so the document covers the serving plane (plan
// version, offered/completed/shed/rejected, SLO breaches) — `stats` wants
// that view, `trace` does not (it would dilute the single-inference trace).
TelemetryCapture capture_telemetry(const std::string& label, duet::Graph model,
                                   duet::DuetOptions options,
                                   bool serve_burst = false) {
  using namespace duet;
  // Fallback would execute the unpartitioned single-device code, leaving no
  // per-subgraph exec events to join the estimates against.
  options.enable_fallback = false;
  telemetry::ScopedTelemetry on(true);
  telemetry::MetricsRegistry::instance().reset();
  telemetry::FlightRecorder::instance().clear();

  Graph serve_model = model;  // the serving registry needs its own copy
  DuetEngine engine(std::move(model), options);
  Rng rng(1);
  const auto feeds = models::make_random_feeds(engine.model(), rng);
  ExecutionResult sim = engine.infer(feeds);
  ExecutionResult threaded = engine.infer_threaded(feeds);

  TelemetryCapture cap;
  if (serve_burst) {
    serve::ModelRegistry registry =
        single_model_registry(label, std::move(serve_model), options);
    serve::FleetOptions fopts;
    fopts.workers = 2;
    fopts.queue_capacity = 16;
    serve::FleetServer server(registry, fopts);
    std::vector<std::future<serve::FleetResponse>> futures;
    for (int i = 0; i < 8; ++i) futures.push_back(server.submit(0, 0, feeds));
    for (auto& f : futures) f.get();
    server.drain();
    const serve::FleetServerStats ss = server.stats();
    std::string s = "{";
    s += "\"plan_version\":" + std::to_string(ss.plan_version) + ",";
    s += "\"offered\":" + std::to_string(ss.total.offered) + ",";
    s += "\"completed\":" + std::to_string(ss.total.completed) + ",";
    s += "\"shed\":" + std::to_string(ss.total.shed) + ",";
    s += "\"rejected\":" + std::to_string(ss.total.rejected) + ",";
    s += "\"slo_breaches\":" + std::to_string(ss.slo_breaches) + ",";
    s += "\"flight_dumps\":" + std::to_string(ss.flight_dumps) + ",";
    s += "\"recalibrations\":" + std::to_string(ss.recalibrations) + ",";
    s += "\"swaps\":" + std::to_string(ss.swaps) + "}";
    cap.serve_json = std::move(s);
  }
  cap.sim_drift = compute_drift(
      label, "sim", engine.partition(), engine.plan().placement(),
      engine.report().profiles, sim.timeline,
      engine.report().schedule.est_latency_s, sim.latency_s);
  cap.threaded_drift = compute_drift(
      label, "threaded", engine.partition(), engine.plan().placement(),
      engine.report().profiles, threaded.timeline,
      engine.report().schedule.est_latency_s, threaded.latency_s);
  cap.trace_json = telemetry::export_chrome_trace(
      telemetry::FlightRecorder::instance().collect(), &sim.timeline);
  cap.metrics_json = telemetry::MetricsRegistry::instance().to_json();
  return cap;
}

// {"model":...,"metrics":{...},["serve":{...},]"drift":{"sim":...,...}}
std::string stats_document(const TelemetryCapture& cap, const std::string& label) {
  using duet::telemetry::json_escape;
  std::string out = "{\"model\":\"" + json_escape(label) + "\",";
  out += "\"metrics\":" + cap.metrics_json + ",";
  if (!cap.serve_json.empty()) out += "\"serve\":" + cap.serve_json + ",";
  out += "\"drift\":{\"sim\":" + cap.sim_drift.to_json() +
         ",\"threaded\":" + cap.threaded_drift.to_json() + "}}";
  return out;
}

// Captures one model and writes <out>/<label>.trace.json plus
// <out>/<label>.stats.json, JSON-validating both before touching the disk.
bool trace_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  std::printf("trace %-12s ", label.c_str());
  std::fflush(stdout);
  const TelemetryCapture cap =
      capture_telemetry(label, std::move(model), engine_options(a));
  const std::string stats = stats_document(cap, label);

  std::string err;
  if (!telemetry::validate_json(cap.trace_json, &err) ||
      !telemetry::validate_json(stats, &err)) {
    std::printf("FAIL (invalid JSON: %s)\n", err.c_str());
    return false;
  }
  const std::filesystem::path dir(a.get("--out", "."));
  const std::filesystem::path trace_path = dir / (label + ".trace.json");
  const std::filesystem::path stats_path = dir / (label + ".stats.json");
  if (!write_file(trace_path, cap.trace_json) || !write_file(stats_path, stats)) {
    std::printf("FAIL (cannot write under %s)\n", dir.string().c_str());
    return false;
  }
  std::printf("OK  %s (%zu KiB) + %s | drift sim %+.1f%% threaded %+.1f%%\n",
              trace_path.string().c_str(), cap.trace_json.size() / 1024,
              stats_path.filename().string().c_str(),
              100.0 * cap.sim_drift.total_rel_err(),
              100.0 * cap.threaded_drift.total_rel_err());
  return true;
}

// Captures one model and prints drift tables + headline metrics (text) or
// one combined JSON document per model.
bool stats_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  const TelemetryCapture cap = capture_telemetry(
      label, std::move(model), engine_options(a), /*serve_burst=*/true);
  if (a.has("--json")) {
    std::printf("%s\n", stats_document(cap, label).c_str());
    return true;
  }
  std::printf("%s%s", cap.sim_drift.to_string().c_str(),
              cap.threaded_drift.to_string().c_str());
  const auto& reg = telemetry::MetricsRegistry::instance();
  std::printf("metrics:\n");
  for (const auto& [name, value] : reg.counters()) {
    if (value == 0) continue;
    std::printf("  %-38s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : reg.gauges()) {
    if (value == 0.0) continue;
    std::printf("  %-38s %.0f\n", name.c_str(), value);
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (h.count == 0) continue;
    std::printf("  %-38s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
                name.c_str(), static_cast<unsigned long long>(h.count), h.mean,
                h.p50, h.p95, h.p99);
  }
  return true;
}

std::string default_cache_dir() {
  const char* env = std::getenv("DUET_CACHE_DIR");
  return (env != nullptr && env[0] != '\0') ? env : ".duet-cache";
}

std::string profile_cache_file(const std::string& dir) {
  return dir + "/profile_cache.v1.txt";
}

// Runs the full pipeline for one model (the engine itself opens/flushes the
// disk cache when options.profile_cache_dir is set) and prints the schedule
// headline plus the profile-cache traffic this model caused.
bool schedule_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  DuetOptions options = engine_options(a);
  if (!a.has("--no-cache")) {
    options.profile_cache_dir = a.get("--cache-dir", default_cache_dir());
  }
  std::printf("schedule %-12s ", label.c_str());
  std::fflush(stdout);
  const ProfileCache::Stats before = ProfileCache::instance().stats();
  DuetEngine engine(std::move(model), options);
  const ProfileCache::Stats after = ProfileCache::instance().stats();
  const DuetReport& r = engine.report();
  std::printf(
      "OK  %zu subgraphs | %s | est %s | profile cache +%llu hit +%llu miss\n",
      engine.partition().subgraphs.size(),
      r.fell_back ? "single-device" : "heterogeneous",
      human_time(r.schedule.est_latency_s).c_str(),
      static_cast<unsigned long long>(after.hits - before.hits),
      static_cast<unsigned long long>(after.misses - before.misses));
  return true;
}

// Prints the on-disk profile cache header + entry count and whether its
// calibration fingerprint still matches the current default testbed.
int cache_stats_cmd(const std::string& dir) {
  using namespace duet;
  const std::string path = profile_cache_file(dir);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::printf("profile cache %s: absent\n", path.c_str());
    return 0;
  }
  char magic[32] = {0};
  int version = 0;
  uint64_t calib = 0;
  if (std::fscanf(f, "%31s v%d calib %" SCNx64, magic, &version, &calib) != 3) {
    std::fclose(f);
    std::printf("profile cache %s: unreadable header (next run rewrites it)\n",
                path.c_str());
    return 0;
  }
  size_t entries = 0;
  int c = 0;
  bool line_pending = false;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      if (line_pending) ++entries;
      line_pending = false;
    } else if (!std::isspace(c)) {
      line_pending = true;
    }
  }
  if (line_pending) ++entries;
  std::fclose(f);
  const uint64_t current =
      calibration_fingerprint(make_default_device_pair(DuetOptions{}.seed));
  std::printf("profile cache %s\n  %s v%d | %zu entries | calibration %016" PRIx64
              " (%s the current testbed)\n",
              path.c_str(), magic, version, entries, calib,
              calib == current ? "matches" : "STALE against");
  return 0;
}

// Deletes the on-disk profile cache and drops both in-memory caches.
int cache_clear_cmd(const std::string& dir) {
  using namespace duet;
  ProfileCache::instance().clear();
  CompileCache::instance().clear();
  const std::string path = profile_cache_file(dir);
  std::error_code ec;
  const bool removed = std::filesystem::remove(path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot remove %s: %s\n", path.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (removed) {
    std::printf("removed %s\n", path.c_str());
  } else {
    std::printf("profile cache %s: already absent\n", path.c_str());
  }
  return 0;
}

// Both serve-bench modes: the single-model bench and the multi-tenant
// fleet, which --models, --tenants or --max-batch engage and which keeps its
// own, smaller defaults.
struct ServeBenchConfig {
  bool fleet;
  int workers;
  double qps;           // 0 = half the pool's saturation (fleet: twice it)
  double deadline_ms;   // 0 = 10x the modeled service time (fleet: none)
  int requests;         // per simulated leg
  int server_requests;  // real-threaded leg
  int tenants;          // fleet: gold/silver/bronze by default
  int64_t max_batch;    // fleet: coalescing cap
  uint64_t seed;
  bool json;
  std::string out_dir;      // Chrome trace destination; empty = skip
  std::string metrics_out;  // Prometheus exposition path; empty = skip
  std::string scheduler;
};

ServeBenchConfig serve_bench_config(const Args& a) {
  const bool fleet =
      a.has("--models") || a.has("--tenants") || a.has("--max-batch");
  return {.fleet = fleet,
          .workers = a.get_int("--workers", fleet ? 2 : 4),
          .qps = a.get_double("--qps", 0.0),
          .deadline_ms = a.get_double("--deadline-ms", 0.0),
          .requests = a.get_int("--requests", fleet ? 256 : 512),
          .server_requests = fleet ? 32 : 48,
          .tenants = a.get_int("--tenants", 3),
          .max_batch = a.get_int("--max-batch", 8),
          .seed = static_cast<uint64_t>(a.get_int("--seed", 42)),
          .json = a.has("--json"),
          .out_dir = a.get("--out"),
          .metrics_out = a.get("--metrics-out"),
          .scheduler = engine_options(a).scheduler};
}

// {"offered_qps":...,"throughput_qps":...,"p50_s":...,...}
std::string serve_leg_json(double offered,
                           const duet::serve::FleetSimStats& s) {
  using duet::telemetry::json_number;
  std::string out = "{";
  out += "\"offered_qps\":" + json_number(offered) + ",";
  out += "\"throughput_qps\":" + json_number(s.throughput_qps) + ",";
  out += "\"p50_s\":" + json_number(s.sojourn.p50) + ",";
  out += "\"p95_s\":" + json_number(s.sojourn.p95) + ",";
  out += "\"p99_s\":" + json_number(s.sojourn.p99) + ",";
  out += "\"mean_s\":" + json_number(s.sojourn.mean) + ",";
  out += "\"shed_rate\":" + json_number(s.total.shed_rate()) + ",";
  out += "\"reject_rate\":" + json_number(s.total.reject_rate()) + ",";
  out += "\"completed\":" + std::to_string(s.total.completed) + ",";
  out += "\"completed_late\":" + std::to_string(s.total.completed_late) + ",";
  out += "\"worker_busy_frac\":" + json_number(s.worker_busy_frac) + ",";
  out += "\"max_queue_depth\":" + std::to_string(s.max_queue_depth) + "}";
  return out;
}

// One model through the serving bench: a real-threaded single-model server
// leg (with one recalibration pass), then deterministic virtual-time legs at
// nominal and peak offered load, plus the single-worker saturation baseline
// every throughput claim is measured against.
bool serve_bench_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  const ServeBenchConfig cfg = serve_bench_config(a);
  if (!cfg.json) {
    std::printf("serve-bench %-12s ", label.c_str());
    std::fflush(stdout);
  }

  const bool want_trace = !cfg.out_dir.empty();
  const bool want_metrics = !cfg.metrics_out.empty();
  telemetry::ScopedTelemetry telemetry_on(want_trace || want_metrics);
  if (want_trace) telemetry::FlightRecorder::instance().clear();
  if (want_metrics) telemetry::MetricsRegistry::instance().reset();

  DuetOptions engine;
  engine.scheduler = cfg.scheduler;
  engine.seed = cfg.seed;
  serve::ModelRegistry registry =
      single_model_registry(label, std::move(model), engine);
  serve::FleetOptions fopts;
  fopts.workers = cfg.workers;
  fopts.queue_capacity = static_cast<size_t>(std::max(cfg.server_requests, 16));
  serve::FleetServer server(registry, fopts);

  // Real-threaded leg: submit a burst, drain it, then one recalibration
  // pass against the drift the workers just recorded.
  Rng feed_rng(1);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), feed_rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  futures.reserve(static_cast<size_t>(cfg.server_requests));
  for (int i = 0; i < cfg.server_requests; ++i) {
    futures.push_back(server.submit(0, 0, feeds));
  }
  size_t server_ok = 0;
  double service_s = 0.0;  // modeled service time (noise off: constant)
  for (auto& f : futures) {
    const serve::FleetResponse r = f.get();
    if (r.status == serve::RequestStatus::kOk) {
      ++server_ok;
      service_s = r.modeled_latency_s;
    }
  }
  server.drain();
  const serve::RecalibrationResult recal = server.recalibrate_now(0);
  const serve::FleetServerStats sstats = server.stats();
  if (service_s <= 0.0) {
    std::printf("FAIL (no request completed)\n");
    return false;
  }

  // Virtual-time legs. Saturation rate of the pool is workers/service; the
  // single-worker run at peak load is the sequential single-engine loop
  // baseline (it admits work back to back, exactly one in service).
  const double saturation_qps = static_cast<double>(cfg.workers) / service_s;
  const double nominal_qps = cfg.qps > 0.0 ? cfg.qps : 0.5 * saturation_qps;
  const double peak_qps = 2.0 * saturation_qps;
  const double deadline_s =
      cfg.deadline_ms > 0.0 ? cfg.deadline_ms / 1e3 : 10.0 * service_s;
  const auto service = [service_s](const std::vector<serve::FleetRequest>&) {
    return service_s;
  };
  // Every leg replays the same arrival-stream shape at its own rate.
  const auto trace = [&cfg](double qps) {
    Rng rng(cfg.seed + 7);
    return serve::single_model_requests(
        serve::poisson_trace(qps, cfg.requests, rng));
  };

  serve::FleetSimConfig sim;
  sim.queue_capacity = 128;
  sim.max_batch = 1;
  sim.tenants = {serve::TenantClass{"default", 1.0, deadline_s}};

  sim.workers = 1;
  const serve::FleetSimStats sequential =
      serve::simulate_fleet(trace(peak_qps), service, sim);
  sim.workers = cfg.workers;
  const serve::FleetSimStats nominal =
      serve::simulate_fleet(trace(nominal_qps), service, sim);
  const serve::FleetSimStats peak =
      serve::simulate_fleet(trace(peak_qps), service, sim);

  const double speedup = sequential.throughput_qps > 0.0
                             ? peak.throughput_qps / sequential.throughput_qps
                             : 0.0;

  bool trace_ok = true;
  if (want_trace) {
    const std::string trace = telemetry::export_chrome_trace(
        telemetry::FlightRecorder::instance().collect(), nullptr);
    std::string err;
    const std::filesystem::path path =
        std::filesystem::path(cfg.out_dir) / (label + ".serve.trace.json");
    trace_ok = write_file(path, trace) && telemetry::validate_json(trace, &err);
    if (!cfg.json && trace_ok) {
      std::printf("[trace %s] ", path.string().c_str());
    }
  }

  // One Prometheus exposition of everything the run recorded (serve.*
  // counters, executor histograms, ...). Appending per model would corrupt
  // the format, so the last model of a multi-model invocation wins.
  bool metrics_ok = true;
  if (want_metrics) {
    const std::string prom =
        telemetry::to_prometheus_text(telemetry::MetricsRegistry::instance());
    metrics_ok = write_file(cfg.metrics_out, prom);
    if (!cfg.json && metrics_ok) {
      std::printf("[metrics %s] ", cfg.metrics_out.c_str());
    }
  }

  if (cfg.json) {
    using telemetry::json_escape;
    using telemetry::json_number;
    std::string doc = "{";
    doc += "\"model\":\"" + json_escape(label) + "\",";
    doc += "\"workers\":" + std::to_string(cfg.workers) + ",";
    doc += "\"service_s\":" + json_number(service_s) + ",";
    doc += "\"deadline_s\":" + json_number(deadline_s) + ",";
    doc += "\"sequential_qps\":" + json_number(sequential.throughput_qps) + ",";
    doc += "\"speedup_vs_sequential\":" + json_number(speedup) + ",";
    doc += "\"nominal\":" + serve_leg_json(nominal_qps, nominal) + ",";
    doc += "\"peak\":" + serve_leg_json(peak_qps, peak) + ",";
    doc += "\"server\":{";
    doc += "\"requests\":" + std::to_string(cfg.server_requests) + ",";
    doc += "\"completed\":" + std::to_string(sstats.total.completed) + ",";
    doc += "\"rejected\":" + std::to_string(sstats.total.rejected) + ",";
    doc += "\"shed\":" + std::to_string(sstats.total.shed) + ",";
    doc += "\"wall_wait_p95_s\":" + json_number(sstats.wall_wait.p95) + ",";
    doc += "\"modeled_mean_s\":" + json_number(sstats.modeled_latency.mean) + ",";
    doc += "\"drift_samples\":" + std::to_string(sstats.drift_samples) + ",";
    doc += "\"recalibrations\":" + std::to_string(sstats.recalibrations) + ",";
    doc += "\"recal_predicted_current_s\":" +
           json_number(recal.predicted_current_s) + ",";
    doc += "\"recal_predicted_new_s\":" + json_number(recal.predicted_new_s) + ",";
    doc += "\"swaps\":" + std::to_string(sstats.swaps) + "}";
    doc += "}";
    if (!print_json("serve-bench " + label, doc)) return false;
  } else {
    std::printf(
        "seq %.1f qps | %d workers peak %.1f qps (%.2fx) | nominal p50 %.3f ms "
        "p95 %.3f ms p99 %.3f ms shed %.2f%% | server %zu/%d ok, %llu recal, "
        "%llu swaps\n",
        sequential.throughput_qps, cfg.workers, peak.throughput_qps, speedup,
        nominal.sojourn.p50 * 1e3, nominal.sojourn.p95 * 1e3,
        nominal.sojourn.p99 * 1e3, 100.0 * nominal.total.shed_rate(),
        server_ok, cfg.server_requests,
        static_cast<unsigned long long>(sstats.recalibrations),
        static_cast<unsigned long long>(sstats.swaps));
  }
  return server_ok > 0 && trace_ok && metrics_ok;
}

// {"name":...,"offered":...,...} for one tenant's admission snapshot.
std::string fleet_tenant_json(const duet::serve::FleetTenantStats& t) {
  using duet::telemetry::json_escape;
  using duet::telemetry::json_number;
  std::string out = "{";
  out += "\"name\":\"" + json_escape(t.name) + "\",";
  out += "\"offered\":" + std::to_string(t.admission.offered) + ",";
  out += "\"completed\":" + std::to_string(t.admission.completed) + ",";
  out += "\"shed\":" + std::to_string(t.admission.shed) + ",";
  out += "\"rejected\":" + std::to_string(t.admission.rejected) + ",";
  out += "\"completed_late\":" + std::to_string(t.admission.completed_late) + ",";
  out += "\"shed_rate\":" + json_number(t.admission.shed_rate()) + "}";
  return out;
}

std::string fleet_sim_json(double offered_qps,
                           const duet::serve::FleetSimStats& s) {
  using duet::telemetry::json_number;
  std::string out = "{";
  out += "\"offered_qps\":" + json_number(offered_qps) + ",";
  out += "\"throughput_qps\":" + json_number(s.throughput_qps) + ",";
  out += "\"p50_s\":" + json_number(s.sojourn.p50) + ",";
  out += "\"p99_s\":" + json_number(s.sojourn.p99) + ",";
  out += "\"mean_batch\":" + json_number(s.mean_batch) + ",";
  out += "\"batches\":" + std::to_string(s.batches) + ",";
  out += "\"coalesced_requests\":" + std::to_string(s.coalesced_requests) + ",";
  out += "\"completed\":" + std::to_string(s.total.completed) + ",";
  out += "\"shed\":" + std::to_string(s.total.shed) + ",";
  out += "\"rejected\":" + std::to_string(s.total.rejected) + ",";
  out += "\"tenants\":[";
  for (size_t i = 0; i < s.tenants.size(); ++i) {
    if (i > 0) out += ",";
    out += fleet_tenant_json(s.tenants[i]);
  }
  out += "]}";
  return out;
}

// The multi-tenant serving bench: every named model resident in one
// ModelRegistry (shared PR-4 caches), a real-threaded FleetServer leg, then
// two virtual-time legs over the same arrival trace — plans per batch
// bucket vs the single-plan baseline — so the plan-per-bucket payoff is a
// printed ratio.
bool fleet_bench(const std::vector<std::string>& names,
                 const ServeBenchConfig& cfg) {
  using namespace duet;

  serve::ModelRegistryOptions ropts;
  ropts.max_batch = cfg.max_batch;
  ropts.engine.scheduler = cfg.scheduler;
  ropts.engine.seed = cfg.seed;
  serve::ModelRegistry registry(ropts);
  for (const std::string& name : names) {
    registry.register_model(name, models::zoo_batched_factory(name));
  }
  const int num_models = static_cast<int>(registry.size());
  const std::vector<serve::TenantClass> tenants =
      serve::default_tenant_classes(
          cfg.tenants, cfg.deadline_ms > 0.0 ? cfg.deadline_ms / 1e3 : 0.0);

  // Real-threaded leg: a round-robin burst across models and tenants.
  serve::FleetOptions fopts;
  fopts.workers = cfg.workers;
  fopts.queue_capacity =
      static_cast<size_t>(std::max(cfg.server_requests, 16));
  fopts.tenants = tenants;
  fopts.max_batch = cfg.max_batch;
  serve::FleetServer server(registry, fopts);
  Rng feed_rng(3);
  std::vector<std::map<NodeId, Tensor>> feeds;
  for (int m = 0; m < num_models; ++m) {
    feeds.push_back(
        models::make_random_feeds(registry.model(m).engine().model(), feed_rng));
  }
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < cfg.server_requests; ++i) {
    futures.push_back(server.submit(i % num_models, i % cfg.tenants,
                                    feeds[static_cast<size_t>(i % num_models)]));
  }
  size_t server_ok = 0;
  for (auto& f : futures) {
    if (f.get().status == serve::RequestStatus::kOk) ++server_ok;
  }
  server.drain();
  const serve::FleetServerStats sstats = server.stats();
  if (server_ok == 0) {
    std::printf("FAIL (no fleet request completed)\n");
    return false;
  }

  // Virtual-time legs. Offered load defaults to 2x the pool's batch-1
  // saturation — the batch-heavy regime where coalescing and bucket plans
  // are supposed to pay.
  double mean_service1 = 0.0;
  for (int m = 0; m < num_models; ++m) {
    mean_service1 += registry.model(m).modeled_service_s(1);
  }
  mean_service1 /= static_cast<double>(num_models);
  const double saturation_qps = static_cast<double>(cfg.workers) / mean_service1;
  const double offered_qps = cfg.qps > 0.0 ? cfg.qps : 2.0 * saturation_qps;

  Rng trace_rng(cfg.seed + 11);
  const std::vector<double> arrivals =
      serve::poisson_trace(offered_qps, cfg.requests, trace_rng);
  std::vector<serve::FleetSimRequest> sim_requests;
  sim_requests.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = arrivals[i];
    r.tenant = static_cast<int>(i) % cfg.tenants;
    r.model = static_cast<int>(i) % num_models;
    sim_requests.push_back(r);
  }
  serve::FleetSimConfig sim;
  sim.workers = cfg.workers;
  sim.queue_capacity = 512;
  sim.tenants = tenants;
  sim.max_batch = cfg.max_batch;
  const auto bucketed_service =
      [&registry](const std::vector<serve::FleetRequest>& batch) {
        return registry.model(batch.front().model)
            .modeled_service_s(static_cast<int64_t>(batch.size()));
      };
  const auto baseline_service =
      [&registry](const std::vector<serve::FleetRequest>& batch) {
        return registry.model(batch.front().model)
            .baseline_service_s(static_cast<int64_t>(batch.size()));
      };
  const serve::FleetSimStats bucketed =
      serve::simulate_fleet(sim_requests, bucketed_service, sim);
  const serve::FleetSimStats baseline =
      serve::simulate_fleet(sim_requests, baseline_service, sim);
  const double throughput_ratio =
      baseline.throughput_qps > 0.0
          ? bucketed.throughput_qps / baseline.throughput_qps
          : 0.0;
  const double p99_ratio = baseline.sojourn.p99 > 0.0
                               ? bucketed.sojourn.p99 / baseline.sojourn.p99
                               : 0.0;

  const serve::RegistryCacheStats& cache = registry.cache_stats();
  if (cfg.json) {
    using telemetry::json_escape;
    using telemetry::json_number;
    std::string doc = "{\"models\":[";
    for (size_t m = 0; m < registry.size(); ++m) {
      if (m > 0) doc += ",";
      serve::ResidentModel& rm = registry.model(static_cast<int>(m));
      doc += "{\"name\":\"" + json_escape(rm.name()) + "\",";
      doc += "\"buckets\":\"" + json_escape(buckets_to_string(rm.buckets())) +
             "\",";
      doc += "\"service_b1_s\":" + json_number(rm.modeled_service_s(1)) + "}";
    }
    doc += "],";
    doc += "\"tenants\":" + std::to_string(cfg.tenants) + ",";
    doc += "\"workers\":" + std::to_string(cfg.workers) + ",";
    doc += "\"max_batch\":" + std::to_string(cfg.max_batch) + ",";
    doc += "\"registry\":{";
    doc += "\"compile_hits\":" + std::to_string(cache.compile_hits) + ",";
    doc += "\"compile_misses\":" + std::to_string(cache.compile_misses) + ",";
    doc += "\"profile_hits\":" + std::to_string(cache.profile_hits) + ",";
    doc += "\"profile_misses\":" + std::to_string(cache.profile_misses) + ",";
    doc +=
        "\"compile_dedup_ratio\":" + json_number(cache.compile_dedup_ratio()) +
        "},";
    doc += "\"server\":{";
    doc += "\"requests\":" + std::to_string(cfg.server_requests) + ",";
    doc += "\"completed\":" + std::to_string(sstats.total.completed) + ",";
    doc += "\"shed\":" + std::to_string(sstats.total.shed) + ",";
    doc += "\"rejected\":" + std::to_string(sstats.total.rejected) + ",";
    doc += "\"batches\":" + std::to_string(sstats.batches) + ",";
    doc += "\"mean_batch\":" + json_number(sstats.mean_batch) + ",";
    doc += "\"coalesced_requests\":" +
           std::to_string(sstats.coalesced_requests) + ",";
    doc += "\"tenants\":[";
    for (size_t t = 0; t < sstats.tenants.size(); ++t) {
      if (t > 0) doc += ",";
      doc += fleet_tenant_json(sstats.tenants[t]);
    }
    doc += "]},";
    doc += "\"virtual\":{";
    doc += "\"bucketed\":" + fleet_sim_json(offered_qps, bucketed) + ",";
    doc += "\"baseline\":" + fleet_sim_json(offered_qps, baseline) + ",";
    doc += "\"throughput_ratio\":" + json_number(throughput_ratio) + ",";
    doc += "\"p99_ratio\":" + json_number(p99_ratio) + "}";
    doc += "}";
    if (!print_json("serve-bench fleet", doc)) return false;
  } else {
    std::printf(
        "fleet: %d models, %d tenants, %d workers, max batch %lld\n",
        num_models, cfg.tenants, cfg.workers,
        static_cast<long long>(cfg.max_batch));
    std::printf("%s", cache.to_string().c_str());
    std::printf(
        "server leg: %zu/%d ok, %llu batches (mean %.2f), %llu coalesced\n",
        server_ok, cfg.server_requests,
        static_cast<unsigned long long>(sstats.batches), sstats.mean_batch,
        static_cast<unsigned long long>(sstats.coalesced_requests));
    for (const serve::FleetTenantStats& t : sstats.tenants) {
      std::printf("  tenant %-8s offered %llu completed %llu shed %llu "
                  "rejected %llu\n",
                  t.name.c_str(),
                  static_cast<unsigned long long>(t.admission.offered),
                  static_cast<unsigned long long>(t.admission.completed),
                  static_cast<unsigned long long>(t.admission.shed),
                  static_cast<unsigned long long>(t.admission.rejected));
    }
    std::printf(
        "virtual @ %.1f qps: bucketed %.1f qps p99 %.3f ms | baseline %.1f "
        "qps p99 %.3f ms | %.2fx throughput, p99 ratio %.2f\n",
        offered_qps, bucketed.throughput_qps, bucketed.sojourn.p99 * 1e3,
        baseline.throughput_qps, baseline.sojourn.p99 * 1e3, throughput_ratio,
        p99_ratio);
  }
  return true;
}

// The batching determinism gate behind `serve-bench --verify-batching`: a
// coalesced batch-B execution must be byte-identical to the B requests run
// alone. Placement never changes numerics, so an all-CPU plan keeps the
// whole-zoo sweep cheap (tiny variants; the same property is asserted on
// full-size plans by tests/test_fleet.cpp).
bool verify_batching_one(const std::string& name, int64_t batch) {
  using namespace duet;
  Rng rng(17);
  Graph g1 = models::build_by_name_batched(name, 1, /*tiny=*/true);
  Graph gb = models::build_by_name_batched(name, batch, /*tiny=*/true);
  DevicePair devices = make_default_device_pair(42);
  const CompileOptions copts;
  Partition p1 = partition_phased(g1);
  Partition pb = partition_phased(gb);
  if (p1.subgraphs.size() != pb.subgraphs.size()) {
    std::printf("verify-batching %-12s FAIL (partition diverged: %zu vs %zu)\n",
                name.c_str(), p1.subgraphs.size(), pb.subgraphs.size());
    return false;
  }
  const Placement cpu(p1.subgraphs.size(), DeviceKind::kCpu);
  const ExecutionPlan plan1 =
      ExecutionPlan::build(g1, std::move(p1), cpu, devices, copts);
  const ExecutionPlan planb =
      ExecutionPlan::build(gb, std::move(pb), cpu, devices, copts);
  SimExecutor executor(devices);

  std::vector<std::map<NodeId, Tensor>> feeds;
  std::vector<ExecutionResult> singles;
  for (int64_t i = 0; i < batch; ++i) {
    feeds.push_back(models::make_random_feeds(g1, rng));
    singles.push_back(executor.run(plan1, feeds.back()));
  }
  std::vector<const std::map<NodeId, Tensor>*> ptrs;
  for (const auto& f : feeds) ptrs.push_back(&f);
  const ExecutionResult batched = executor.run(planb, serve::stack_feeds(ptrs));
  const auto rows =
      serve::split_outputs(batched.outputs, static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    if (rows[static_cast<size_t>(i)].size() != singles[i].outputs.size()) {
      std::printf("verify-batching %-12s FAIL (output arity)\n", name.c_str());
      return false;
    }
    for (size_t o = 0; o < rows[static_cast<size_t>(i)].size(); ++o) {
      const Tensor& got = rows[static_cast<size_t>(i)][o];
      const Tensor& want = singles[i].outputs[o];
      if (got.shape() != want.shape() ||
          std::memcmp(got.raw_data(), want.raw_data(), got.byte_size()) != 0) {
        std::printf(
            "verify-batching %-12s FAIL (row %lld output %zu diverged)\n",
            name.c_str(), static_cast<long long>(i), o);
        return false;
      }
    }
  }
  std::printf("verify-batching %-12s OK (batch %lld == %lld singles, "
              "bit-identical)\n",
              name.c_str(), static_cast<long long>(batch),
              static_cast<long long>(batch));
  return true;
}

// Seeded deadline-miss storm through a single-model server. A healthy burst
// fills the rings with normal traffic, then `storm` requests arrive with
// deadlines that expired before admission — every pickup sheds, the
// miss-burst trigger fires mid-run, and the server writes the post-mortem
// dump into <dump_dir>/<model>/. Fails when no dump landed.
bool flight_one(const Args& a, const std::string& label, duet::Graph model) {
  using namespace duet;
  const std::string dump_dir = a.get("--dump", "flight-dump");
  if (dump_dir.empty()) usage_error(*a.command);
  const int requests = a.get_int("--requests", 24);  // healthy phase
  const int storm = a.get_int("--storm", 8);
  const uint64_t seed = static_cast<uint64_t>(a.get_int("--seed", 42));
  // Counters (serve.flight_dumps etc.) are gated on the telemetry switch;
  // the flight recorder itself is always on.
  telemetry::ScopedTelemetry telemetry_on(true);
  telemetry::FlightRecorder::instance().clear();

  const std::filesystem::path dir = std::filesystem::path(dump_dir) / label;

  DuetOptions engine = engine_options(a);
  engine.seed = seed;
  serve::ModelRegistry registry =
      single_model_registry(label, std::move(model), engine);
  serve::FleetOptions fopts;
  fopts.workers = a.get_int("--workers", 2);
  fopts.queue_capacity =
      static_cast<size_t>(requests) + static_cast<size_t>(storm) + 8;
  fopts.observability.dump_dir = dir.string();
  fopts.observability.trigger.miss_burst = 3;
  fopts.observability.trigger.miss_window_ms = 10e3;
  serve::FleetServer server(registry, fopts);

  Rng rng(seed);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);

  std::vector<std::future<serve::FleetResponse>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    futures.push_back(server.submit(0, 0, feeds));
  }
  size_t ok = 0;
  for (auto& f : futures) {
    ok += f.get().status == serve::RequestStatus::kOk ? 1 : 0;
  }
  futures.clear();

  for (int i = 0; i < storm; ++i) {
    futures.push_back(server.submit(0, 0, feeds, /*deadline_s=*/1e-9));
  }
  size_t shed = 0;
  for (auto& f : futures) {
    shed += f.get().status == serve::RequestStatus::kShed ? 1 : 0;
  }
  server.drain();

  const serve::FleetServerStats stats = server.stats();
  const std::filesystem::path trace_path = dir / "flight_trace.json";
  const std::filesystem::path summary_path = dir / "flight_summary.json";
  const bool dumped = stats.flight_dumps > 0 &&
                      std::filesystem::exists(trace_path) &&
                      std::filesystem::exists(summary_path);
  const bool pass = dumped && ok > 0 && shed > 0;

  if (a.has("--json")) {
    using telemetry::json_escape;
    std::string doc = "{";
    doc += "\"model\":\"" + json_escape(label) + "\",";
    doc += "\"healthy_ok\":" + std::to_string(ok) + ",";
    doc += "\"storm_shed\":" + std::to_string(shed) + ",";
    doc += "\"slo_breaches\":" + std::to_string(stats.slo_breaches) + ",";
    doc += "\"flight_dumps\":" + std::to_string(stats.flight_dumps) + ",";
    doc += "\"events_recorded\":" +
           std::to_string(telemetry::FlightRecorder::instance().recorded()) +
           ",";
    doc += "\"trace\":\"" + json_escape(trace_path.string()) + "\",";
    doc += "\"summary\":\"" + json_escape(summary_path.string()) + "\",";
    doc += std::string("\"ok\":") + (pass ? "true" : "false") + "}";
    if (!print_json("flight " + label, doc)) return false;
  } else {
    std::printf(
        "flight %-12s %zu/%d ok, %zu/%d shed, %llu breaches | %s -> %s\n",
        label.c_str(), ok, requests, shed, storm,
        static_cast<unsigned long long>(stats.slo_breaches),
        dumped ? "dump" : "NO DUMP", trace_path.string().c_str());
  }
  return pass;
}

// --- handlers ----------------------------------------------------------------

using EachModel = bool (*)(const Args&, const std::string& label, duet::Graph);

// Runs `each` on every named zoo model, then on every --relay file; a
// failure does not stop the rest. Returns the exit code.
template <EachModel each>
int for_each_model(const Args& a) {
  bool all_ok = true;
  for (const std::string& name : a.models) {
    all_ok &= each(a, name, duet::models::build_by_name(name));
  }
  for (const std::string& file : a.relay_files) {
    all_ok &= each(a, file, duet::relay::to_graph(duet::relay::load_module(file)));
  }
  return all_ok ? 0 : 1;
}

// A/B baseline: every subgraph profiles and compiles from scratch, exactly
// the pre-cache pipeline.
void disable_caches() {
  duet::ProfileCache::instance().set_enabled(false);
  duet::CompileCache::instance().set_enabled(false);
}

int run_lint(const Args& a) {
  using namespace duet;
  const DuetOptions options = engine_options(a);
  const bool json = a.has("--json");
  VerifyResult combined;
  bool all_ok = true;
  const auto report = [&](const std::string& label, const VerifyResult& r,
                          const std::string& extra) {
    all_ok &= r.ok();
    if (json) {
      all_ok &= print_json("lint " + label,
                           "{\"artifact\":\"" + telemetry::json_escape(label) +
                               "\"," + findings_json(r) + "}");
      return;
    }
    std::printf("lint %-14s %s %zu error(s), %zu warning(s)%s%s\n",
                label.c_str(), r.ok() ? "OK  " : "FAIL", r.error_count(),
                r.warning_count(), extra.empty() ? "" : " | ", extra.c_str());
    if (!r.diagnostics().empty()) std::printf("%s", r.to_string().c_str());
  };

  for (const std::string& name : a.models) {
    VerifyResult result = lint_model(name, models::build_by_name(name), options);
    report(name, result, "");
    combined.merge(std::move(result));
  }
  // The serve-protocol model checker runs once per invocation: its artifact
  // is the protocol, not any model.
  mc::ExploreResult mc_result = mc::explore(mc::ProtocolConfig{});
  report("serve-protocol", mc_result.findings, mc_result.summary());
  all_ok &= mc_result.ok && mc_result.exhausted;
  combined.merge(std::move(mc_result.findings));

  const std::string sarif_path = a.get("--sarif");
  if (!sarif_path.empty()) {
    combined.sort();
    const std::string sarif = lint::to_sarif(combined.diagnostics());
    std::string err;
    if (!telemetry::validate_json(sarif, &err)) {
      std::fprintf(stderr, "SARIF export is invalid JSON: %s\n", err.c_str());
      return 1;
    }
    std::ofstream out(sarif_path);
    out << sarif;
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", sarif_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu result(s), %zu rule(s))\n", sarif_path.c_str(),
                combined.diagnostics().size(), lint::rule_catalogue().size());
  }
  return all_ok ? 0 : 1;
}

int run_schedule(const Args& a) {
  using namespace duet;
  const bool no_cache = a.has("--no-cache");
  if (no_cache) disable_caches();
  const int code = for_each_model<schedule_one>(a);
  const ProfileCache::Stats s = ProfileCache::instance().stats();
  const uint64_t total = s.hits + s.misses;
  std::printf("profile cache: %llu hits, %llu misses (%.1f%% hit rate)%s\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              total > 0 ? 100.0 * static_cast<double>(s.hits) /
                              static_cast<double>(total)
                        : 0.0,
              no_cache ? " [caches disabled]" : "");
  return code;
}

int run_cache(const Args& a) {
  if (a.words.size() != 1 || (a.words[0] != "stats" && a.words[0] != "clear")) {
    usage_error(*a.command);
  }
  const std::string dir = a.get("--cache-dir", default_cache_dir());
  return a.words[0] == "stats" ? cache_stats_cmd(dir) : cache_clear_cmd(dir);
}

int run_serve_bench(const Args& a) {
  if (a.has("--verify-batching")) {
    const int64_t batch = std::max(a.get_int("--max-batch", 3), 2);
    bool all_ok = true;
    for (const std::string& name : a.models) {
      all_ok &= verify_batching_one(name, batch);
    }
    return all_ok ? 0 : 1;
  }
  const ServeBenchConfig cfg = serve_bench_config(a);
  if (cfg.fleet) return fleet_bench(a.models, cfg) ? 0 : 1;
  return for_each_model<serve_bench_one>(a);
}

// The default command: the full pipeline on one model, then the schedule
// report (text or JSON), an optional latency distribution, trace and DOT.
int run_report(const Args& a) {
  using namespace duet;
  DuetOptions options = engine_options(a);
  if (a.has("--no-fallback")) options.enable_fallback = false;
  if (a.has("--nested")) {
    options.partition.granularity = PartitionOptions::Granularity::kNested;
    options.partition.nested_max_nodes =
        static_cast<size_t>(a.get_int("--nested", 1));
  }
  if (a.has("--no-cache")) disable_caches();
  const int runs = a.get_int("--runs", 0);
  const std::string relay_path = a.get("--relay");
  const std::string trace_path = a.get("--trace");
  const std::string dot_path = a.get("--dot");
  const std::string dump_path = a.get("--dump");

  Graph model = relay_path.empty()
                    ? models::build_by_name(a.get("--model", "wide-deep"))
                    : relay::to_graph(relay::load_module(relay_path));
  if (!dump_path.empty()) {
    relay::save_module(relay::from_graph(model), dump_path);
    std::printf("wrote %s and %s.weights\n", dump_path.c_str(),
                dump_path.c_str());
  }

  DuetEngine engine(std::move(model), options);
  const auto mem = engine.plan().memory_report();
  SummaryStats latency;
  if (runs > 0) {
    LatencyRecorder rec;
    for (int i = 0; i < runs; ++i) rec.add(engine.latency(true));
    latency = rec.summarize();
  }

  if (a.has("--json")) {
    // Machine-readable schedule report: everything the text report says,
    // as one JSON object (validated through the shared writer helpers).
    using telemetry::json_escape;
    using telemetry::json_number;
    const DuetReport& r = engine.report();
    std::string doc = "{";
    doc += "\"model\":\"" + json_escape(engine.model().name()) + "\",";
    doc += "\"scheduler\":\"" + json_escape(options.scheduler) + "\",";
    doc += "\"subgraphs\":" + std::to_string(engine.partition().subgraphs.size()) + ",";
    doc += "\"transfers\":" + std::to_string(engine.plan().transfers().size()) + ",";
    doc += "\"placement\":\"" + json_escape(r.schedule.placement.to_string()) + "\",";
    doc += "\"est_hetero_s\":" + json_number(r.est_hetero_s) + ",";
    doc += "\"est_single_cpu_s\":" + json_number(r.est_single_cpu_s) + ",";
    doc += "\"est_single_gpu_s\":" + json_number(r.est_single_gpu_s) + ",";
    doc += std::string("\"fell_back\":") + (r.fell_back ? "true" : "false") + ",";
    doc += "\"fallback_device\":\"" +
           json_escape(device_kind_name(r.fallback_device)) + "\",";
    doc += "\"memory\":{\"cpu_bytes\":" +
           std::to_string(mem.total(DeviceKind::kCpu)) +
           ",\"gpu_bytes\":" + std::to_string(mem.total(DeviceKind::kGpu)) + "}";
    if (runs > 0) {
      doc += ",\"latency\":{\"runs\":" + std::to_string(runs) +
             ",\"mean_s\":" + json_number(latency.mean) +
             ",\"p50_s\":" + json_number(latency.p50) +
             ",\"p99_s\":" + json_number(latency.p99) +
             ",\"p999_s\":" + json_number(latency.p999) + "}";
    }
    doc += "}";
    std::printf("%s\n", doc.c_str());
  } else {
    std::printf("%s", engine.report()
                          .to_string(engine.model(), engine.partition())
                          .c_str());
    if (a.has("--breakdown")) {
      std::printf("\n%s", render_subgraph_breakdown(engine).c_str());
    }
    std::printf(
        "memory: cpu %.1f MiB (weights %.1f), gpu %.1f MiB (weights %.1f)\n",
        mem.total(DeviceKind::kCpu) / 1048576.0, mem.weight_bytes[0] / 1048576.0,
        mem.total(DeviceKind::kGpu) / 1048576.0, mem.weight_bytes[1] / 1048576.0);
    if (runs > 0) {
      std::printf(
          "latency over %d runs: mean %.3f ms  p50 %.3f  p99 %.3f  p99.9 %.3f\n",
          runs, latency.mean * 1e3, latency.p50 * 1e3, latency.p99 * 1e3,
          latency.p999 * 1e3);
    }
  }

  if (!trace_path.empty() || !dot_path.empty()) {
    Rng rng(1);
    const auto feeds = models::make_random_feeds(engine.model(), rng);
    ExecutionResult result = engine.infer(feeds);
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      out << result.timeline.to_chrome_trace();
      std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
    }
    if (!dot_path.empty()) {
      DotOptions dopts;
      const Partition* part = &engine.partition();
      dopts.cluster = [part](NodeId id) { return part->producer_subgraph(id); };
      write_dot_file(engine.model(), dot_path, dopts);
      std::printf("wrote DOT to %s\n", dot_path.c_str());
    }
  }
  return 0;
}

// --- the table ----------------------------------------------------------------

const Flag kScheduler{"--scheduler", Value::kString, "<name>"};
const Flag kJson{"--json"};
const Flag kRelayFile{"--relay", Value::kRelayFile, "<file>"};
const Flag kCacheDir{"--cache-dir", Value::kString, "<dir>"};
const Flag kSym{"--sym", Value::kString, "NAME=LO..HI"};
const Flag kSeed{"--seed", Value::kInt, "<S>"};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"", "",
       {{"--model", Value::kString, "<name>"}, {"--relay", Value::kString, "<file>"},
        kScheduler, {"--no-fallback"}, {"--nested", Value::kInt, "<N>", 1},
        {"--runs", Value::kInt, "<N>", 0}, {"--trace", Value::kString, "<file>"},
        {"--dot", Value::kString, "<file>"}, {"--dump", Value::kString, "<file>"},
        {"--breakdown"}, kJson, {"--no-cache"}},
       run_report},
      {"verify", kModelOperands, {kRelayFile, kScheduler},
       for_each_model<verify_one>},
      {"analyze", kModelOperands, {kRelayFile, kScheduler, kJson},
       for_each_model<analyze_one>},
      {"lint", kModelOperands,
       {{"--sarif", Value::kString, "<path>"}, kJson, kScheduler}, run_lint},
      {"trace", kModelOperands, {{"--out", Value::kString, "<dir>"}, kScheduler},
       for_each_model<trace_one>},
      {"stats", kModelOperands, {kJson, kScheduler}, for_each_model<stats_one>},
      {"schedule", kModelOperands, {kCacheDir, {"--no-cache"}, kScheduler},
       run_schedule},
      {"cache", "stats | clear", {kCacheDir}, run_cache},
      {"serve-bench", kModelOperands,
       {{"--qps", Value::kDouble, "<Q>"}, {"--workers", Value::kInt, "<N>", 1},
        {"--deadline-ms", Value::kDouble, "<D>"},
        {"--requests", Value::kInt, "<N>", 1}, kJson,
        {"--out", Value::kString, "<dir>"},
        {"--metrics-out", Value::kString, "<path>"}, kScheduler,
        {"--models", Value::kModels, "<a,b,..>"},
        {"--tenants", Value::kInt, "<N>", 1},
        {"--max-batch", Value::kInt, "<B>", 1}, {"--verify-batching"}, kSeed},
       run_serve_bench},
      {"flight", kModelOperands,
       {{"--dump", Value::kString, "<dir>"}, {"--workers", Value::kInt, "<N>", 1},
        {"--requests", Value::kInt, "<N>", 1}, {"--storm", Value::kInt, "<N>", 1},
        kSeed, kJson, kScheduler},
       for_each_model<flight_one>},
      {"shapes", kModelOperands, {{"--symbolic"}, kSym, kJson},
       for_each_model<shapes_one>},
      {"crossover", kModelOperands, {kSym, kJson}, for_each_model<crossover_one>},
  };
  return table;
}

std::string flag_spec(const Flag& flag) {
  return flag.metavar == nullptr ? flag.name
                                 : std::string(flag.name) + " " + flag.metavar;
}

// One command's synopsis, wrapped before column 80.
void print_synopsis(std::FILE* out, const Command& command, const char* lead) {
  std::string line = lead + std::string(program);
  const auto add = [&](const std::string& word) {
    if (line.size() + 1 + word.size() > 79) {
      std::fprintf(out, "%s\n", line.c_str());
      line = "         ";
    }
    line += " " + word;
  };
  if (!command.name.empty()) add(command.name);
  if (!command.operands.empty()) add(command.operands);
  for (const Flag& flag : command.flags) add("[" + flag_spec(flag) + "]");
  std::fprintf(out, "%s\n", line.c_str());
}

// The default command's usage lists every command.
void print_usage(std::FILE* out, const Command& command) {
  if (!command.name.empty()) return print_synopsis(out, command, "usage: ");
  const char* lead = "usage: ";
  for (const Command& each : commands()) {
    print_synopsis(out, each, lead);
    lead = "       ";
  }
}

[[noreturn]] void usage_error(const Command& command) {
  print_usage(stderr, command);
  std::exit(2);
}

Args parse_args(const Command& command, int argc, char** argv, int first) {
  Args a;
  a.command = &command;
  const bool takes_models = command.operands == kModelOperands;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, command);
      std::exit(0);
    }
    if (arg == "--all" && takes_models) {
      const std::vector<std::string>& zoo = duet::models::zoo_model_names();
      a.models.insert(a.models.end(), zoo.begin(), zoo.end());
      continue;
    }
    if (arg.rfind("-", 0) != 0 && !command.operands.empty()) {
      (takes_models ? a.models : a.words).push_back(arg);
      continue;
    }
    const auto flag = std::find_if(
        command.flags.begin(), command.flags.end(),
        [&](const Flag& f) { return arg == f.name; });
    if (flag == command.flags.end()) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage_error(command);
    }
    std::string value;
    if (flag->value != Value::kNone) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        usage_error(command);
      }
      value = argv[++i];
    }
    if (flag->value == Value::kInt || flag->value == Value::kDouble) {
      check_number(command, *flag, value);
    }
    if (flag->value == Value::kModels) append_csv_models(value, &a.models);
    if (flag->value == Value::kRelayFile) a.relay_files.push_back(value);
    a.values[arg].push_back(value);
  }
  if (takes_models) {
    a.models = resolve_model_list(command, std::move(a.models),
                                  /*allow_empty=*/!a.relay_files.empty());
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  program = argv[0];
  // A first argument that is not a flag names the subcommand; anything else
  // is the default report.
  const std::vector<Command>& table = commands();
  const Command* command = &table.front();
  int first = 1;
  if (argc > 1 && argv[1][0] != '-' && argv[1][0] != '\0') {
    const auto it = std::find_if(table.begin(), table.end(), [&](const Command& c) {
      return c.name == argv[1];
    });
    if (it == table.end()) {
      std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
      usage_error(table.front());
    }
    command = &*it;
    first = 2;
  }
  const Args args = parse_args(*command, argc, argv, first);
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
