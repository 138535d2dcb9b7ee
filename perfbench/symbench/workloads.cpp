// workloads.cpp — the four workloads. Each one builds its inputs from the
// seed (set-up), runs the timed region untraced, checks every output outside
// the timers, and, when tracing, repeats the work as individually spanned
// public calls to attribute the time to layers.
#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "core/experiment.hpp"
#include "core/profile.hpp"
#include "core/report.hpp"
#include "core/symbiotic_scheduler.hpp"
#include "sched/policy.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vm/hypervisor.hpp"
#include "workload/parsec_model.hpp"
#include "workload/replayer.hpp"
#include "workload/trace_source.hpp"

namespace symbench {

using namespace symbiosis;

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

void Result::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "core.phase1_ms",
      "core.measure_ms",
      "core.mix_ms",
      "core.mappings_per_mix",
      "core.sweep_parallel_eff",
      "obs.report_ms",
      "machine.ns_per_step",
      "machine.steps",
      "machine.context_switches",
      "machine.hook_invocations",
      "cachesim.access_ns_per_ref",
      "cachesim.l1.hit_ratio",
      "cachesim.l2.hit_ratio",
      "cachesim.l3.hit_ratio",
      "cachesim.tlb.miss_ratio",
      "cachesim.sim_cycles_per_ref",
      "sig.filter_ns_per_ref",
      "sig.snapshots",
      "workload.decode_ns_per_ref",
      "workload.replay_residual_ns_per_ref",
      "workload.bytes_per_ref",
      "workload.gen_s",
      "sched.weight-sort.decision_us_p50",
      "sched.weight-sort.decision_us_p99",
      "sched.graph.decision_us_p50",
      "sched.graph.decision_us_p99",
      "sched.weighted-graph.decision_us_p50",
      "sched.weighted-graph.decision_us_p99",
      "sched.multithread.decision_us_p50",
      "sched.multithread.decision_us_p99",
      "sched.mincut.solves",
      "sched.mincut.kl_passes",
      "vm.measure_ms",
      "vm.overhead_ratio",
      "vm.domains_created",
      "trace.overhead_pct",
  };
  return names;
}

namespace {

// Set-up is repeated and its median reported; the repeats are spread over
// the run, because a shared host's speed drifts over seconds, and they also
// prove the inputs are reproducible.
constexpr int kSetupRepeats = 5;
constexpr int kSlowSetupRepeats = 3;

/// Traced runs of sweep, vm and replay alternate this many plain and
/// spanned repeats of the same work to price the tracer.
constexpr int kOverheadPairs = 3;

const std::vector<std::string> kSweepAllocators = {"weight-sort", "graph", "weighted-graph"};

/// Interleaving granularity of every trace replay and layer pass.
constexpr std::size_t kChunk = 4096;

/// Moves the calling thread from one CPU of the process's affinity mask to
/// another between the timed units it runs (vm mixes, replay passes). On a
/// shared host one virtual CPU can run far slower than another for
/// minutes; a thread the kernel leaves on such a CPU would set a whole
/// run's fast tail, while units spread over every CPU let the tail come
/// from the fastest. Threads started while a pin holds inherit it, so any
/// pool must exist before the first pin. The destructor restores the mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) (void)sched_setaffinity(0, sizeof mask_, &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Run on the (k mod n)-th CPU of the mask from now on.
  void pin(std::size_t k) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
};

Result new_result(const Options& o) {
  Result r;
  if (o.trace) {
    for (const auto& name : layer_metric_names()) r.layers[name] = 0.0;
  }
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void keep_spans(Result& r, const Tracer& tracer) {
  for (const auto& [name, st] : tracer.summary()) {
    r.spans[name] = {static_cast<double>(st.count), st.total_s, st.self_s};
  }
}

double elapsed_since(double start) { return now_s() - start; }

// --- the mix-experiment workloads (sweep, vm) ------------------------------

/// The mix experiments run at a twentieth of the default time scale:
/// program lengths, the allocator period, the phase-1 window and the OS
/// quantum all shrink together, so one run repeats its whole grid about 20
/// times and each mix about 16 times. A fast-tail rate needs many short
/// units on a shared host; a default-scale grid alone fills a run. Much
/// below this scale the mappings stop differing and the quality figures
/// lose their meaning.
constexpr double kTimeScale = 0.05;

core::PipelineConfig pipeline_config(const Options& o, bool virtualized) {
  core::PipelineConfig c;
  c.machine = machine::core2duo_config();
  c.machine.seed = o.seed;
  c.seed = o.seed;
  c.virtualized = virtualized;
  const double x = o.tiny ? 0.02 : kTimeScale;
  const auto scaled = [x](std::uint64_t cycles) {
    return static_cast<std::uint64_t>(static_cast<double>(cycles) * x);
  };
  c.scale.length_scale = x;
  c.allocator_period_cycles = scaled(c.allocator_period_cycles);
  c.emulation_cycles = scaled(c.emulation_cycles);
  c.machine.quantum_cycles = scaled(c.machine.quantum_cycles);
  c.sync_scale();
  return c;
}

/// The program pool the mixes are drawn from. One 4-program mix per
/// rotation covers the whole pool, so every run does the same programs'
/// work whatever the seed.
std::vector<std::string> program_pool(const Options& o) {
  const auto& pool = workload::spec2006_pool();
  if (!o.tiny) return pool;
  return {pool.begin(), pool.begin() + 4};
}

std::vector<std::vector<std::string>> sample(const Options& o, const core::PipelineConfig& c) {
  return core::sample_mixes(program_pool(o), 4, 1, c.seed);
}

/// Build @p mix's machine the way phase 2 does (natively, or one VM per
/// program on a hypervisor), pin it to @p alloc when given and hand it to
/// @p use. Returns the machine's task count.
std::size_t with_mix_machine(const core::PipelineConfig& c, const std::vector<std::string>& mix,
                             const sched::Allocation* alloc,
                             const std::function<void(machine::Machine&)>& use) {
  if (!c.virtualized) {
    machine::Machine m(c.machine);
    const auto ids = core::add_mix_tasks(m, mix, c.scale, c.seed);
    if (alloc) core::apply_allocation(m, ids, *alloc);
    if (use) use(m);
    return m.task_count();
  }
  vm::VmConfig vc = c.vm;
  vc.machine = c.machine;
  vm::Hypervisor hv(vc);
  util::Rng rng(c.seed);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const auto dom = hv.create_domain(workload::make_spec_workload(
        mix[i], machine::address_space_base(i), rng.split(i + 1), c.scale));
    if (alloc) hv.set_domain_affinity(dom, alloc->group_of[i]);
  }
  if (use) use(hv.machine());
  return hv.machine().task_count();
}

bool outcome_complete(const core::MixOutcome& o) {
  return !o.mappings.empty() && o.chosen < o.mappings.size() &&
         std::all_of(o.mappings.begin(), o.mappings.end(),
                     [](const core::MappingRun& run) { return run.completed; });
}

void digest_outcome(Digest& d, const core::MixOutcome& o) {
  for (const auto& name : o.mix) d.add(name);
  d.add(o.chosen);
  for (const auto& run : o.mappings) {
    d.add(run.allocation.key());
    d.add(run.wall_cycles);
    for (const auto c : run.user_cycles) d.add(c);
  }
}

/// Mean chosen-vs-worst improvement and mean oracle-minus-chosen regret
/// over every program of every outcome, in percent.
std::pair<double, double> quality(const std::vector<core::MixOutcome>& outcomes) {
  double improvement = 0.0;
  double regret = 0.0;
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    for (std::size_t i = 0; i < o.mix.size(); ++i) {
      improvement += o.improvement_vs_worst(i);
      regret += o.oracle_improvement(i) - o.improvement_vs_worst(i);
      ++n;
    }
  }
  return {100.0 * ratio(improvement, static_cast<double>(n)),
          100.0 * ratio(regret, static_cast<double>(n))};
}

/// Build, serialise and validate a sweep report for @p outcomes; the build
/// and the JSON dump are spanned as obs.report.
void check_report(Result& r, const core::PipelineConfig& c, const std::vector<std::string>& pool,
                    const std::vector<std::vector<std::string>>& mixes,
                    std::vector<core::MixOutcome> outcomes, Tracer& tracer) {
  core::SweepResult sweep;
  sweep.mixes = mixes;
  sweep.summary = core::summarize_improvements(pool, outcomes);
  sweep.outcomes = std::move(outcomes);
  std::size_t bytes = 0;
  obs::Json report;
  {
    const Tracer::Span span(tracer, "obs.report");
    report = core::build_sweep_report(c, sweep);
    bytes = report.dump().size();
  }
  const auto problems = core::validate_report(report);
  r.expect(problems.empty() && bytes > 0,
           "sweep report invalid: " + (problems.empty() ? std::string("empty") : problems[0]));
}

/// Host ns per simulated step over timed run_batch slices.
double machine_ns_per_step(machine::Machine& m, std::uint64_t batches) {
  constexpr std::uint64_t kSlice = 256;
  const std::uint64_t steps_before = m.stats().steps;
  double busy = 0.0;
  for (std::uint64_t done = 0; done < batches; done += kSlice) {
    const double start = now_s();
    const std::uint64_t ran = m.run_batch(kSlice);
    busy += elapsed_since(start);
    if (ran < kSlice) break;
  }
  const auto steps = static_cast<double>(m.stats().steps - steps_before);
  return ratio(busy * 1e9, steps);
}

/// One hierarchy pass in the replayer's order: round-robin visits of
/// kChunk references per stream onto core (stream mod cores), with the
/// front end (generation or decoding) and Hierarchy::access_batch timed
/// apart.
struct LayerPass {
  double front_s = 0.0;
  double access_s = 0.0;
  cachesim::BatchSummary summary;
};

using FillFn = std::function<std::size_t(std::size_t stream, cachesim::MemRef* out)>;

LayerPass layer_pass(const cachesim::HierarchyConfig& hc, std::size_t streams, const FillFn& fill) {
  LayerPass pass;
  cachesim::Hierarchy h(hc);
  std::vector<cachesim::MemRef> buffer(kChunk);
  for (bool any = true; any;) {
    any = false;
    for (std::size_t s = 0; s < streams; ++s) {
      const double t0 = now_s();
      const std::size_t n = fill(s, buffer.data());
      const double t1 = now_s();
      pass.front_s += t1 - t0;
      if (n == 0) continue;
      pass.summary += h.access_batch(s % h.num_cores(), buffer.data(), n);
      pass.access_s += now_s() - t1;
      any = true;
    }
  }
  return pass;
}

/// Repeat a layer pass and keep each timer's fastest reading, so the layer
/// split is not decided by one moment of a shared host; the simulated
/// summaries of the repeats must agree.
LayerPass fastest(Result& r, const std::function<LayerPass()>& pass) {
  constexpr int kRepeats = 3;
  LayerPass best = pass();
  for (int k = 1; k < kRepeats; ++k) {
    const LayerPass p = pass();
    r.expect(p.summary == best.summary, "layer pass is not reproducible");
    best.front_s = std::min(best.front_s, p.front_s);
    best.access_s = std::min(best.access_s, p.access_s);
  }
  return best;
}

/// Generator-fed layer pass: stream i is program names[i] at the trace
/// converter's base address and seed split, @p refs references long.
LayerPass generated_pass(const cachesim::HierarchyConfig& hc, const std::vector<std::string>& names,
                         std::uint64_t refs, std::uint64_t seed,
                         const workload::ScaleConfig& scale) {
  const util::Rng root(seed);
  std::vector<std::unique_ptr<workload::Workload>> streams;
  std::vector<std::uint64_t> remaining(names.size(), refs);
  for (std::size_t i = 0; i < names.size(); ++i) {
    streams.push_back(workload::make_spec_workload(
        names[i], static_cast<cachesim::Addr>(i + 1) << 40, root.split(i), scale));
  }
  return layer_pass(hc, names.size(), [&](std::size_t s, cachesim::MemRef* out) {
    std::size_t n = 0;
    while (n < kChunk && remaining[s] > 0 && !streams[s]->complete()) {
      const workload::Step step = streams[s]->next();
      out[n++] = {step.addr, step.is_write};
      --remaining[s];
    }
    return n;
  });
}

void summary_layers(Result& r, const cachesim::BatchSummary& s) {
  const auto acc = static_cast<double>(s.accesses);
  const auto l1 = static_cast<double>(s.l1_hits);
  const auto l2 = static_cast<double>(s.l2_hits);
  r.layers["cachesim.l1.hit_ratio"] = ratio(l1, acc);
  r.layers["cachesim.l2.hit_ratio"] = ratio(l2, acc - l1);
  r.layers["cachesim.l3.hit_ratio"] = ratio(static_cast<double>(s.l3_hits), acc - l1 - l2);
  r.layers["cachesim.tlb.miss_ratio"] = ratio(acc - static_cast<double>(s.tlb_hits), acc);
  r.layers["cachesim.sim_cycles_per_ref"] = ratio(static_cast<double>(s.cycles), acc);
}

/// Cache, signature and generator costs on the experiment's hierarchy, fed
/// by the mix programs' own generators; signature off isolates the filter.
void mix_hierarchy_layers(Result& r, const core::PipelineConfig& c,
                          const std::vector<std::vector<std::string>>& mixes, std::uint64_t refs) {
  double gen_s = 0.0, on_s = 0.0, off_s = 0.0, n = 0.0, cycles = 0.0;
  cachesim::HierarchyConfig off = c.machine.hierarchy;
  off.signature.enabled = false;
  for (const auto& mix : mixes) {
    const LayerPass on =
        fastest(r, [&] { return generated_pass(c.machine.hierarchy, mix, refs, c.seed, c.scale); });
    const LayerPass bare =
        fastest(r, [&] { return generated_pass(off, mix, refs, c.seed, c.scale); });
    r.expect(on.summary.accesses == bare.summary.accesses, "signature toggle changed the stream");
    gen_s += on.front_s;
    on_s += on.access_s;
    off_s += bare.access_s;
    n += static_cast<double>(on.summary.accesses);
    cycles += static_cast<double>(on.summary.cycles);
  }
  r.layers["cachesim.sim_cycles_per_ref"] = ratio(cycles, n);
  r.layers["cachesim.access_ns_per_ref"] = ratio(on_s * 1e9, n);
  r.layers["sig.filter_ns_per_ref"] = ratio((on_s - off_s) * 1e9, n);
  r.layers["workload.gen_s"] = gen_s;
}

/// Machine and cache counters of a traced region, from registry deltas.
void counter_layers(Result& r, const CounterSnapshot& before, const CounterSnapshot& after) {
  const auto d = [&](const char* name) { return after.since(before, name); };
  r.layers["machine.steps"] = d("machine.steps");
  r.layers["machine.context_switches"] = d("machine.context_switch");
  r.layers["machine.hook_invocations"] = d("machine.hook_invocations");
  const double l1 = d("cachesim.l1.hit"), l1_miss = d("cachesim.l1.miss");
  const double l2 = d("cachesim.l2.hit"), l2_miss = d("cachesim.l2.miss");
  const double l3 = d("cachesim.l3.hit"), l3_miss = d("cachesim.l3.miss");
  r.layers["cachesim.l1.hit_ratio"] = ratio(l1, l1 + l1_miss);
  r.layers["cachesim.l2.hit_ratio"] = ratio(l2, l2 + l2_miss);
  r.layers["cachesim.l3.hit_ratio"] = ratio(l3, l3 + l3_miss);
  r.layers["cachesim.tlb.miss_ratio"] = ratio(d("cachesim.tlb.miss"), l1 + l1_miss);
  r.layers["sig.snapshots"] = d("sig.filter.snapshots");
  r.layers["sched.mincut.solves"] = d("sched.mincut.solves");
  r.layers["sched.mincut.kl_passes"] = d("sched.mincut.kl_passes");
  r.layers["vm.domains_created"] = d("vm.domains_created");
}

/// run_mix_experiment rebuilt from its public steps, each spanned:
/// phase 1, then every balanced mapping measured (natively or in VMs).
core::MixOutcome traced_mix(const core::PipelineConfig& c, const std::vector<std::string>& mix,
                            Tracer& tracer, std::vector<double>* measure_s = nullptr) {
  const Tracer::Span span(tracer, "core.mix");
  core::MixOutcome out;
  out.mix = mix;
  core::SymbioticScheduler pipeline(c);
  sched::Allocation chosen;
  {
    const Tracer::Span phase1(tracer, "core.phase1");
    chosen = pipeline.choose_allocation(mix);
  }
  out.votes = pipeline.vote_table();
  const auto measure = [&](const sched::Allocation& alloc) {
    const double start = now_s();
    const Tracer::Span m(tracer, c.virtualized ? "vm.measure" : "core.measure");
    out.mappings.push_back(c.virtualized ? core::measure_mapping_vm(c, mix, alloc)
                                         : core::measure_mapping(c, mix, alloc));
    if (measure_s) measure_s->push_back(elapsed_since(start));
  };
  for (const auto& alloc :
       sched::enumerate_balanced_allocations(mix.size(), c.machine.hierarchy.num_cores)) {
    measure(alloc);
  }
  // Phase 1 may pick a mapping the enumeration lacks; it is measured last.
  out.chosen = static_cast<std::size_t>(
      std::find_if(out.mappings.begin(), out.mappings.end(),
                   [&](const core::MappingRun& run) { return run.allocation == chosen; }) -
      out.mappings.begin());
  if (out.chosen == out.mappings.size()) measure(chosen);
  return out;
}

/// Per-layer time of traced mixes, per call; @p measure names the span of
/// one mapping measurement inside a mix.
void core_layers(Result& r, const Tracer& tracer, const char* measure) {
  const auto per_call = [&](const char* name) {
    return ratio(tracer.total_s(name) * 1e3, static_cast<double>(tracer.count(name)));
  };
  r.layers["core.phase1_ms"] = per_call("core.phase1");
  r.layers["core.measure_ms"] = per_call("core.measure");
  r.layers["core.mix_ms"] = per_call("core.mix");
  r.layers["core.mappings_per_mix"] = ratio(static_cast<double>(tracer.count(measure)),
                                            static_cast<double>(tracer.count("core.mix")));
  r.layers["obs.report_ms"] = per_call("obs.report");
}

/// machine.ns_per_step on a fresh machine per mix, pinned to the mix's
/// first balanced mapping (the shape every measurement run has).
void machine_layer(Result& r, const core::PipelineConfig& c,
                   const std::vector<std::vector<std::string>>& mixes, std::uint64_t batches) {
  double sum = 0.0;
  for (const auto& mix : mixes) {
    const auto alloc =
        sched::enumerate_balanced_allocations(mix.size(), c.machine.hierarchy.num_cores).front();
    (void)with_mix_machine(c, mix, &alloc,
                           [&](machine::Machine& m) { sum += machine_ns_per_step(m, batches); });
  }
  r.layers["machine.ns_per_step"] = ratio(sum, static_cast<double>(mixes.size()));
}

/// Set-up of the mix workloads: the config, the mixes and every mix's
/// machine with its task streams. run_sweep_grid and run_mix_experiment
/// build all of this again themselves, so it is a proxy for the cost of
/// constructing a mix's machines, not a step the timed region skips. One
/// set-up takes under a millisecond, while the host's speed swings from one
/// moment to the next, so each sample repeats the set-up back to back for
/// kSampleSeconds and records the time per set-up; a sample is taken after
/// every timed unit as well as before the first.
struct MixSetup {
  static constexpr double kSampleSeconds = 0.1;
  core::PipelineConfig config;
  std::vector<std::vector<std::string>> mixes;
  std::vector<double> times;
  std::size_t tasks = 0;

  void run(Result& r, const Options& o, bool virtualized) {
    std::size_t built = 0, batch = 0;
    const double start = now_s();
    do {
      config = pipeline_config(o, virtualized);
      mixes = sample(o, config);
      for (const auto& mix : mixes) built += with_mix_machine(config, mix, nullptr, nullptr);
      ++batch;
    } while (elapsed_since(start) < kSampleSeconds);
    times.push_back(elapsed_since(start) / static_cast<double>(batch));
    const std::size_t per = built / batch;
    r.expect(per > 0 && per * batch == built && (tasks == 0 || per == tasks),
             "set-up is not reproducible");
    tasks = per;
  }
};

/// Tracing cost from plain and spanned times of the same work, taken
/// alternately so both see the same host and compared by their fast tail,
/// as throughput is.
double overhead_pct(const std::vector<double>& plain, const std::vector<double>& spanned) {
  const double base = quantile(plain, fast_share(plain.size()));
  return 100.0 * (quantile(spanned, fast_share(spanned.size())) - base) / base;
}

}  // namespace

// --- sweep-core2duo --------------------------------------------------------

Result run_sweep(const Options& o) {
  Result r = new_result(o);
  const auto pool = std::make_unique<util::ThreadPool>(online_cpus());
  MixSetup s;
  for (int k = 0; k < kSetupRepeats; ++k) s.run(r, o, false);
  const auto names = program_pool(o);

  std::vector<double> grid_s, grid_steps;
  core::SweepGridResult first;
  const double start = now_s();
  do {
    const CounterSnapshot before = CounterSnapshot::take();
    const double t = now_s();
    core::SweepGridResult grid =
        core::run_sweep_grid(s.config, names, 4, 1, kSweepAllocators, 1, false, pool.get());
    grid_s.push_back(elapsed_since(t));
    grid_steps.push_back(CounterSnapshot::take().since(before, "machine.steps"));
    if (grid_s.size() == 1) {
      first = std::move(grid);
    } else {
      r.expect(grid == first, "repeated grid differs");
    }
    s.run(r, o, false);
  } while (elapsed_since(start) < o.seconds);
  const double busy = std::accumulate(grid_s.begin(), grid_s.end(), 0.0);
  const double steps = std::accumulate(grid_steps.begin(), grid_steps.end(), 0.0);

  Digest digest;
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    r.expect(outcome_complete(first.outcomes[i]), "incomplete mapping run in grid cell");
    digest.add(first.cells[i].allocator);
    digest_outcome(digest, first.outcomes[i]);
  }
  r.digest = digest.value();
  Tracer tracer(o.trace);
  for (const auto& alloc : kSweepAllocators) {
    std::vector<core::MixOutcome> outcomes;
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
      if (first.cells[i].allocator == alloc) outcomes.push_back(first.outcomes[i]);
    }
    core::PipelineConfig c = s.config;
    c.allocator = alloc;
    check_report(r, c, names, first.mixes, std::move(outcomes), tracer);
  }

  // A grid's work is its cells: one mix experiment each.
  const auto cells = static_cast<double>(first.cells.size());
  const auto [improvement, regret] = quality(first.outcomes);
  r.e2e["setup_s"] = median(s.times);
  r.e2e["throughput_per_s"] = fast_rate(std::vector<double>(grid_s.size(), cells), grid_s);
  r.e2e["mixes_per_s"] = cells * static_cast<double>(grid_s.size()) / busy;
  r.e2e["sim_msteps_per_s"] = steps / busy / 1e6;
  r.e2e["improvement_avg_pct"] = improvement;
  r.e2e["regret_pct"] = regret;
  r.e2e["samples"] = static_cast<double>(grid_s.size());
  r.e2e["workers"] = static_cast<double>(pool->size());
  if (!o.trace) return r;

  // Traced grid: the same cells as public calls on the same pool, rebuilt
  // alternately under a disabled and the recording tracer.
  Tracer plain_tracer(false);
  const auto rebuild = [&](Tracer& t) {
    std::vector<core::MixOutcome> outcomes(first.cells.size());
    const double t_start = now_s();
    pool->parallel_for(0, first.cells.size(), [&](std::size_t i) {
      core::PipelineConfig c = s.config;
      c.allocator = first.cells[i].allocator;
      outcomes[i] = traced_mix(c, first.mixes[first.cells[i].mix_index], t);
    });
    const double wall = elapsed_since(t_start);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      r.expect(outcomes[i] == first.outcomes[i], "traced cell differs from run_sweep_grid");
    }
    return wall;
  };
  std::vector<double> plain, spanned;
  for (int k = 0; k < kOverheadPairs; ++k) {
    plain.push_back(rebuild(plain_tracer));
    const CounterSnapshot t_before = CounterSnapshot::take();
    spanned.push_back(rebuild(tracer));
    if (k == 0) counter_layers(r, t_before, CounterSnapshot::take());
  }

  core_layers(r, tracer, "core.measure");
  r.layers["core.sweep_parallel_eff"] =
      ratio(tracer.total_s("core.mix"), static_cast<double>(pool->size()) *
                                            std::accumulate(spanned.begin(), spanned.end(), 0.0));
  r.layers["trace.overhead_pct"] = overhead_pct(plain, spanned);
  machine_layer(r, s.config, s.mixes, o.tiny ? 64 : 16384);
  mix_hierarchy_layers(r, s.config, s.mixes, o.tiny ? 4096 : 250'000);
  keep_spans(r, tracer);
  return r;
}

// --- vm-core2duo -----------------------------------------------------------

Result run_vm(const Options& o) {
  Result r = new_result(o);
  MixSetup s;
  for (int k = 0; k < kSetupRepeats; ++k) s.run(r, o, true);
  const auto names = program_pool(o);

  // One pass runs every mix once, serially; passes repeat until the
  // timed region is spent, so every run covers the whole program pool.
  // mix_s[m] holds mix m's time in every pass.
  std::vector<std::vector<double>> mix_s(s.mixes.size());
  std::vector<core::MixOutcome> first;
  double busy = 0.0, steps = 0.0;
  std::size_t passes = 0;
  {
    const CpuRotation cpus;
    const double start = now_s();
    do {
      for (std::size_t m = 0; m < s.mixes.size(); ++m) {
        cpus.pin(passes + m);
        const CounterSnapshot before = CounterSnapshot::take();
        const double t = now_s();
        core::MixOutcome out = core::run_mix_experiment(s.config, s.mixes[m]);
        mix_s[m].push_back(elapsed_since(t));
        busy += mix_s[m].back();
        steps += CounterSnapshot::take().since(before, "machine.steps");
        if (passes == 0) {
          first.push_back(std::move(out));
        } else {
          r.expect(out == first[m], "repeated vm mix differs");
        }
      }
      s.run(r, o, true);
      ++passes;
    } while (elapsed_since(start) < o.seconds);
  }

  Digest digest;
  for (const auto& out : first) {
    r.expect(outcome_complete(out), "incomplete vm mapping run");
    digest_outcome(digest, out);
  }
  r.digest = digest.value();
  Tracer tracer(o.trace);
  check_report(r, s.config, names, s.mixes, first, tracer);

  // The mixes differ in cost, so each is timed by the fast tail of its own
  // repeats and the throughput is mix experiments per second of a pass made
  // of those times.
  double fast_pass_s = 0.0;
  for (const auto& times : mix_s) fast_pass_s += quantile(times, fast_share(times.size()));
  const auto [improvement, regret] = quality(first);
  const auto mixes = static_cast<double>(s.mixes.size() * passes);
  r.e2e["setup_s"] = median(s.times);
  r.e2e["throughput_per_s"] = ratio(static_cast<double>(s.mixes.size()), fast_pass_s);
  r.e2e["mixes_per_s"] = mixes / busy;
  r.e2e["sim_msteps_per_s"] = steps / busy / 1e6;
  r.e2e["improvement_avg_pct"] = improvement;
  r.e2e["regret_pct"] = regret;
  r.e2e["samples"] = mixes;
  r.e2e["workers"] = 1.0;
  if (!o.trace) return r;

  // Traced passes: every mix rebuilt from its public calls, alternately
  // under a disabled and the recording tracer.
  Tracer plain_tracer(false);
  double vm_chosen_s = 0.0, native_chosen_s = 0.0;
  const auto rebuild = [&](Tracer& t, bool first_spanned) {
    const double t_start = now_s();
    for (std::size_t m = 0; m < s.mixes.size(); ++m) {
      std::vector<double> measure_s;
      const core::MixOutcome out = traced_mix(s.config, s.mixes[m], t, &measure_s);
      r.expect(out == first[m], "traced vm mix differs from run_mix_experiment");
      if (first_spanned) vm_chosen_s += measure_s.at(out.chosen);
    }
    return elapsed_since(t_start);
  };
  std::vector<double> plain, spanned;
  for (int k = 0; k < kOverheadPairs; ++k) {
    plain.push_back(rebuild(plain_tracer, false));
    const CounterSnapshot t_before = CounterSnapshot::take();
    spanned.push_back(rebuild(tracer, k == 0));
    if (k == 0) counter_layers(r, t_before, CounterSnapshot::take());
  }
  for (std::size_t m = 0; m < s.mixes.size(); ++m) {
    const double t = now_s();
    const Tracer::Span span(tracer, "core.measure");
    const core::MappingRun native =
        core::measure_mapping(s.config, s.mixes[m], first[m].mappings[first[m].chosen].allocation);
    native_chosen_s += elapsed_since(t);
    r.expect(native.completed, "native twin of a vm mapping did not complete");
  }

  core_layers(r, tracer, "vm.measure");
  r.layers["core.sweep_parallel_eff"] =
      ratio(tracer.total_s("core.mix"), std::accumulate(spanned.begin(), spanned.end(), 0.0));
  r.layers["vm.measure_ms"] =
      ratio(tracer.total_s("vm.measure") * 1e3, static_cast<double>(tracer.count("vm.measure")));
  r.layers["vm.overhead_ratio"] = ratio(vm_chosen_s, native_chosen_s);
  r.layers["trace.overhead_pct"] = overhead_pct(plain, spanned);
  machine_layer(r, s.config, s.mixes, o.tiny ? 64 : 16384);
  mix_hierarchy_layers(r, s.config, s.mixes, o.tiny ? 4096 : 250'000);
  keep_spans(r, tracer);
  return r;
}

// --- replay-clustered ------------------------------------------------------

namespace {

/// Eight programs whose footprints together overflow one cluster's L2, so
/// the shared L3 both hits and back-invalidates.
const std::vector<std::string> kReplayPrograms = {"mcf", "omnetpp", "libquantum", "hmmer",
                                                  "gcc", "bzip2",   "astar",      "sjeng"};

/// 8 cores in 2 clusters of 4, each cluster sharing an L2 with its own
/// filter unit, all above one inclusive shared L3.
cachesim::HierarchyConfig clustered_hierarchy(std::uint64_t seed) {
  cachesim::HierarchyConfig h;
  h.num_cores = 8;
  h.l1 = {8 * 1024, 8, 64};
  h.l2 = {256 * 1024, 16, 64};
  h.shared_l2 = true;
  h.l2_clusters = 2;
  h.l3 = cachesim::CacheGeometry{1024 * 1024, 16, 64};
  h.seed = seed;
  return h;
}

void digest_replay(Digest& d, const workload::ReplayResult& res) {
  const auto& t = res.totals;
  for (const auto v : {t.accesses, t.cycles, t.l1_hits, t.l2_hits, t.l3_hits, t.tlb_hits,
                       t.stream_prefetched, res.rounds, res.sync_events}) {
    d.add(v);
  }
  for (const auto& th : res.threads) d.add(th.mem_refs);
}

}  // namespace

Result run_replay(const Options& o) {
  Result r = new_result(o);
  const std::uint64_t refs = o.tiny ? 20'000 : 100'000;
  const cachesim::HierarchyConfig hc = clustered_hierarchy(o.seed);

  std::unique_ptr<workload::SymtTrace> trace;
  workload::SymtStats stats;
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<double> setup_s, gen_s;
  for (int k = 0; k < kSlowSetupRepeats; ++k) {
    const double start = now_s();
    std::vector<std::uint8_t> image = workload::symt_from_benchmarks(kReplayPrograms, refs, o.seed);
    gen_s.push_back(elapsed_since(start));
    auto t = std::make_unique<workload::SymtTrace>(
        workload::SymtTrace::from_buffer(std::move(image)));
    const workload::SymtStats st = workload::collect_stats(*t);
    pool = std::make_unique<util::ThreadPool>(online_cpus());
    setup_s.push_back(elapsed_since(start));
    r.expect(k == 0 || (st.mem_refs == stats.mem_refs && t->file_bytes() == trace->file_bytes()),
             "trace generation is not reproducible");
    trace = std::move(t);
    stats = st;
  }

  // One replay of the trace into a cold hierarchy; the clock covers run().
  const auto replay = [&](util::ThreadPool* decode_pool, double& seconds) {
    cachesim::Hierarchy h(hc);
    workload::TraceReplayer replayer(*trace, h, workload::ReplayOptions{kChunk, decode_pool});
    const double t = now_s();
    workload::ReplayResult res = replayer.run();
    seconds = elapsed_since(t);
    return res;
  };

  std::vector<double> pass_s;
  workload::ReplayResult first;
  {
    const CpuRotation cpus;
    const double start = now_s();
    do {
      cpus.pin(pass_s.size());
      double seconds = 0.0;
      workload::ReplayResult res = replay(pool.get(), seconds);
      pass_s.push_back(seconds);
      if (pass_s.size() == 1) {
        first = std::move(res);
      } else {
        r.expect(res == first, "repeated replay differs");
      }
    } while (elapsed_since(start) < o.seconds);
  }

  // Checks: the codec round trip against direct generation, and the
  // pool-decoded replay against a serial one.
  r.expect(first.totals.accesses == stats.mem_refs, "replay lost references");
  {
    cachesim::Hierarchy h(hc);
    const cachesim::BatchSummary twin =
        workload::replay_generated(kReplayPrograms, refs, o.seed, h, kChunk);
    r.expect(twin == first.totals, "replay differs from its replay_generated twin");
  }
  Tracer tracer(o.trace);
  double serial_s = 0.0;
  r.expect(replay(nullptr, serial_s) == first, "pool-decoded replay differs from serial replay");
  {
    const Tracer::Span span(tracer, "obs.report");
    const obs::Json report =
        core::build_trace_replay_report(hc, "generated.symt", stats, first, kChunk, pool->size());
    const auto problems = core::validate_report(report);
    r.expect(problems.empty() && !report.dump().empty(), "trace replay report invalid");
  }
  Digest digest;
  digest_replay(digest, first);
  r.digest = digest.value();

  const double busy = std::accumulate(pass_s.begin(), pass_s.end(), 0.0);
  const auto total_refs = static_cast<double>(first.totals.accesses * pass_s.size());
  r.e2e["setup_s"] = median(setup_s);
  const std::vector<double> pass_refs(pass_s.size(), static_cast<double>(first.totals.accesses));
  r.e2e["throughput_per_s"] = fast_rate(pass_refs, pass_s);
  r.e2e["replay_mrefs_per_s"] = total_refs / busy / 1e6;
  r.e2e["samples"] = static_cast<double>(pass_s.size());
  r.e2e["workers"] = static_cast<double>(pool->size());
  if (!o.trace) return r;

  // Plain and spanned serial replays alternate and are compared by their
  // fast tail; the run() times of all of them feed the residual below.
  Tracer plain_tracer(false);
  std::vector<double> plain, spanned, run_s = {serial_s};
  const auto timed_replay = [&](Tracer& t) {
    const double t_start = now_s();
    {
      const Tracer::Span span(t, "workload.replay");
      run_s.push_back(0.0);
      (void)replay(nullptr, run_s.back());
    }
    return elapsed_since(t_start);
  };
  for (int k = 0; k < kOverheadPairs; ++k) {
    plain.push_back(timed_replay(plain_tracer));
    spanned.push_back(timed_replay(tracer));
  }
  // Layer pass: decode and access_batch timed apart, in replay order.
  std::vector<workload::SymtCursor> cursors;
  const auto decode_pass = [&](const cachesim::HierarchyConfig& config) {
    cursors.clear();
    for (std::size_t t = 0; t < trace->num_threads(); ++t) cursors.emplace_back(*trace, t);
    return layer_pass(config, cursors.size(), [&](std::size_t s, cachesim::MemRef* out) {
      return cursors[s].decode_mem_run(out, nullptr, kChunk);
    });
  };
  const LayerPass on = fastest(r, [&] { return decode_pass(hc); });
  cachesim::HierarchyConfig off = hc;
  off.signature.enabled = false;
  const LayerPass bare = fastest(r, [&] { return decode_pass(off); });
  r.expect(on.summary == first.totals, "layer pass differs from the replayer");

  const auto n = static_cast<double>(first.totals.accesses);
  summary_layers(r, first.totals);
  r.layers["obs.report_ms"] = tracer.total_s("obs.report") * 1e3;
  r.layers["cachesim.access_ns_per_ref"] = on.access_s * 1e9 / n;
  r.layers["sig.filter_ns_per_ref"] = (on.access_s - bare.access_s) * 1e9 / n;
  r.layers["workload.decode_ns_per_ref"] = on.front_s * 1e9 / n;
  r.layers["workload.replay_residual_ns_per_ref"] =
      (*std::min_element(run_s.begin(), run_s.end()) - on.front_s - on.access_s) * 1e9 / n;
  r.layers["workload.bytes_per_ref"] = static_cast<double>(trace->file_bytes()) / n;
  r.layers["workload.gen_s"] = median(gen_s);
  r.layers["trace.overhead_pct"] = overhead_pct(plain, spanned);
  keep_spans(r, tracer);
  return r;
}

// --- decide-quadcore -------------------------------------------------------

namespace {

/// Profile snapshots of one phase-1 machine and the allocators that
/// decide on them.
struct Source {
  std::string label;
  std::size_t groups = 0;
  std::vector<std::string> allocators;
  std::vector<std::vector<sched::TaskProfile>> snapshots;
};

/// Run a phase-1 machine under the monitor's schedule and keep every
/// window's profiles that the monitor would have voted on.
std::vector<std::vector<sched::TaskProfile>> capture(machine::Machine& m, std::uint64_t period,
                                                     std::uint64_t cycles) {
  std::vector<std::vector<sched::TaskProfile>> snapshots;
  const auto ids = core::profiled_task_ids(m);
  m.set_periodic_hook(period, [&](machine::Machine& mm) {
    auto profiles = core::collect_profiles(mm);
    const bool ready = std::all_of(profiles.begin(), profiles.end(), [&](const auto& p) {
      return mm.task(ids[p.task_index]).signature().samples() > 0;
    });
    if (!ready) return;
    snapshots.push_back(std::move(profiles));
    core::clear_signature_windows(mm);
  });
  m.run_for(cycles);
  return snapshots;
}

/// Fixed programs per source, so the seed varies the reference streams and
/// scheduling jitter but not how much work a decision is: a cache-sensitive
/// victim, an aggressor and two middle classes on the dual-core, eight
/// varied programs on the quad-core, two cache-heavy PARSEC programs.
const std::vector<std::string> kDualCoreMix = {"mcf", "libquantum", "omnetpp", "povray"};
const std::vector<std::string> kQuadCoreMix = {"mcf", "omnetpp", "libquantum", "hmmer",
                                               "gcc", "bzip2",   "astar",      "sjeng"};
const std::vector<std::string> kParsecMix = {"canneal", "streamcluster"};

std::vector<Source> capture_sources(const Options& o) {
  const util::Rng rng(o.seed);

  workload::ScaleConfig scale;
  if (o.tiny) scale.length_scale = 0.05;
  const std::uint64_t period = o.tiny ? 2'000'000 : 20'000'000;
  const std::uint64_t cycles = o.tiny ? 8'000'000 : 60'000'000;
  std::vector<Source> sources;

  const auto spec_source = [&](const char* label, machine::MachineConfig mc,
                               const std::vector<std::string>& mix) {
    mc.seed = o.seed;
    scale.l2_bytes = mc.hierarchy.l2.size_bytes;
    machine::Machine m(mc);
    (void)core::add_mix_tasks(m, mix, scale, o.seed);
    sources.push_back(Source{label, mc.hierarchy.num_cores, kSweepAllocators,
                             capture(m, period, cycles)});
  };
  spec_source("core2duo", machine::core2duo_config(), kDualCoreMix);
  spec_source("quadcore", machine::quadcore_config(), kQuadCoreMix);

  machine::MachineConfig mc = machine::quadcore_config();
  mc.seed = o.seed;
  scale.l2_bytes = mc.hierarchy.l2.size_bytes;
  machine::Machine m(mc);
  for (std::size_t i = 0; i < kParsecMix.size(); ++i) {
    const auto spec_mt = workload::make_parsec_benchmark(kParsecMix[i], scale);
    auto threads = workload::make_parsec_threads(spec_mt, machine::address_space_base(i),
                                                 rng.split(i + 1));
    for (auto& thread : threads) (void)m.add_thread(std::move(thread), i);
  }
  sources.push_back(Source{"parsec", mc.hierarchy.num_cores, {"multithread"},
                           capture(m, period, cycles)});
  return sources;
}

bool balanced(const sched::Allocation& a, std::size_t tasks, std::size_t groups) {
  if (a.groups != groups || a.group_of.size() != tasks) return false;
  std::vector<std::size_t> sizes(groups, 0);
  for (const auto g : a.group_of) {
    if (g >= groups) return false;
    ++sizes[g];
  }
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  return *hi - *lo <= 1;
}

/// One timed decision: (source, allocator, snapshot).
struct Decision {
  std::size_t source;
  std::string allocator;
  std::size_t snapshot;
};

}  // namespace

Result run_decide(const Options& o) {
  Result r = new_result(o);
  std::vector<Source> sources;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double start = now_s();
    std::vector<Source> captured = capture_sources(o);
    setup_s.push_back(elapsed_since(start));
    if (sources.empty()) {
      sources = std::move(captured);
      return;
    }
    bool same = captured.size() == sources.size();
    for (std::size_t i = 0; same && i < captured.size(); ++i) {
      const auto& a = captured[i].snapshots;
      const auto& b = sources[i].snapshots;
      same = a.size() == b.size();
      for (std::size_t k = 0; same && k < a.size(); ++k) {
        same = a[k].size() == b[k].size();
        for (std::size_t t = 0; same && t < a[k].size(); ++t) {
          same = a[k][t].occupancy_weight == b[k][t].occupancy_weight &&
                 a[k][t].symbiosis_per_core == b[k][t].symbiosis_per_core;
        }
      }
    }
    r.expect(same, "profile capture is not reproducible");
  };
  set_up();

  std::vector<Decision> plan;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    r.expect(!sources[s].snapshots.empty(), "no profile snapshot from " + sources[s].label);
    for (const auto& a : sources[s].allocators) {
      for (std::size_t k = 0; k < sources[s].snapshots.size(); ++k) plan.push_back({s, a, k});
    }
  }
  std::map<std::string, std::unique_ptr<sched::Allocator>> allocators;
  for (const auto& d : plan) {
    if (!allocators.count(d.allocator)) {
      allocators[d.allocator] = sched::make_allocator(d.allocator, o.seed);
    }
  }

  // Round-robin rounds over the whole plan keep the mix of decisions fixed.
  // Per-call times are kept for the first kMaxSamples calls of each plan
  // entry, in buffers filled up front, so that the benchmark's own memory
  // does not grow with the host's speed and move peak_rss_mb.
  constexpr std::size_t kMaxSamples = 4096;
  std::vector<std::string> first_keys(plan.size());
  std::vector<std::vector<double>> samples(plan.size(), std::vector<double>(kMaxSamples));
  std::vector<std::size_t> taken(plan.size(), 0);
  std::vector<double> round_s;
  // Returns the round's time inside allocate(), checks excluded.
  const auto run_round = [&](Tracer& tracer) {
    double busy = 0.0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Decision& d = plan[i];
      const auto& profiles = sources[d.source].snapshots[d.snapshot];
      sched::Allocator& alloc = *allocators.at(d.allocator);
      const double t = now_s();
      sched::Allocation a;
      {
        const Tracer::Span span(tracer, "sched.allocate");
        a = alloc.allocate(profiles, sources[d.source].groups);
      }
      const double took = elapsed_since(t);
      busy += took;
      if (taken[i] < kMaxSamples) samples[i][taken[i]++] = took;
      const std::string key = a.key();
      if (first_keys[i].empty()) first_keys[i] = key;
      r.expect(balanced(a, profiles.size(), sources[d.source].groups) && key == first_keys[i],
               d.allocator + " decision on " + sources[d.source].label + " unbalanced or unstable");
    }
    return busy;
  };

  Tracer untraced(false);
  const CounterSnapshot before = CounterSnapshot::take();
  round_s.push_back(run_round(untraced));
  const CounterSnapshot after_one = CounterSnapshot::take();
  // The set-up is repeated after each of the first segments of the timed
  // region; the clock of the timed region stops meanwhile.
  double timed = 0.0;
  for (int segment = 1; segment <= kSlowSetupRepeats; ++segment) {
    const double segment_end = o.seconds * segment / kSlowSetupRepeats;
    const double start = now_s() - timed;
    while (elapsed_since(start) < segment_end) round_s.push_back(run_round(untraced));
    timed = elapsed_since(start);
    if (segment < kSlowSetupRepeats) set_up();
  }

  Digest digest;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    digest.add(plan[i].allocator);
    digest.add(first_keys[i]);
  }
  r.digest = digest.value();

  // Latency of one allocator on the 8-task quad-core (multithread: PARSEC).
  const auto latencies = [&](const std::string& allocator) {
    std::vector<double> us;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::string& label = sources[plan[i].source].label;
      if (plan[i].allocator != allocator || (label != "quadcore" && label != "parsec")) continue;
      for (std::size_t k = 0; k < taken[i]; ++k) us.push_back(samples[i][k] * 1e6);
    }
    return us;
  };
  const std::vector<double> wg = latencies("weighted-graph");
  r.e2e["setup_s"] = median(setup_s);
  const std::vector<double> round_decisions(round_s.size(), static_cast<double>(plan.size()));
  r.e2e["throughput_per_s"] = fast_rate(round_decisions, round_s);
  r.e2e["decision_us_p50"] = median(wg);
  r.e2e["decision_us_p99"] = quantile(wg, 0.99);
  r.e2e["samples"] = static_cast<double>(wg.size());
  r.e2e["workers"] = 1.0;
  if (!o.trace) return r;

  for (const auto& [name, alloc] : allocators) {
    const std::vector<double> us = latencies(name);
    r.layers["sched." + name + ".decision_us_p50"] = median(us);
    r.layers["sched." + name + ".decision_us_p99"] = quantile(us, 0.99);
  }
  r.layers["sched.mincut.solves"] = after_one.since(before, "sched.mincut.solves");
  r.layers["sched.mincut.kl_passes"] = after_one.since(before, "sched.mincut.kl_passes");

  // Untraced and traced rounds alternate, in pairs for half as many rounds
  // as the timed region ran.
  Tracer tracer(true);
  std::vector<double> plain, spanned;
  for (std::size_t k = 0; k < (round_s.size() + 1) / 2; ++k) {
    plain.push_back(run_round(untraced));
    spanned.push_back(run_round(tracer));
  }
  r.layers["trace.overhead_pct"] = overhead_pct(plain, spanned);
  keep_spans(r, tracer);
  return r;
}

}  // namespace symbench
