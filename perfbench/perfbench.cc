// perfbench: the repo benchmark program.
//
//   perfbench --workload <paper-study|long-replay|degraded-obs> --seed N
//             --seconds S --trace 0|1 --work-dir DIR --digests FILE
//
// One workload per process. The run is:
//
//   1. inputs   — long-replay writes its MSR-format CSV from the seed (not
//                 set-up: a user brings that file);
//   2. set-up   — trace generation or conversion, the .pfct write and open,
//                 the fingerprint and the oracle/predictor build; repeated
//                 before the warm-up and before every pass, and setup_s is
//                 the median over all repetitions;
//   3. warm-up  — the first cell of each policy once, untimed;
//   4. timed    — whole passes over the cell list until --seconds is used
//                 up; the tuning cache is cleared before every pass so each
//                 pass does the same work, and a host-speed calibration runs
//                 before every cell (see CalibrationNs);
//   5. check    — untimed: every cell is deterministic across passes, keeps
//                 the time-bar and prefetch balances, and matches either the
//                 committed digest (default seed) or RefSim (other seeds).
//
// With --trace 1 half of the time runs untraced and half traced: spans
// are recorded around every library call, the per-layer metrics are
// derived from them, and the spans are written to
// DIR/spans-<workload>.jsonl. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// any execution failed its check.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pfc/pfc.h"
#include "predict/hint_stream.h"

namespace {

using pfc::PolicyKind;

// Inputs are pure functions of the seed. The default seed is the one the
// committed digests were made with; the held-out seed is for re-checking a
// claim on inputs it was not tuned on (README.md).
constexpr uint64_t kDefaultSeed = 19960901;
constexpr uint64_t kHeldOutSeed = 4242;

// Reverse-aggressive tuning grid: the library's default (F x batch) sweep.
const std::vector<int64_t> kTuneFetchTimes = {16, 64, 128};
const std::vector<int> kTuneBatches = {8, 40};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Host-speed calibration. The shared host's neighbours slow everything by
// up to 40% for stretches of seconds to minutes, and steal time stays at
// zero, so no clock filters it out. This fixed kernel runs right before
// every cell and set-up: random probes into a 512 KiB table and
// ordered-map churn, the kinds of work the simulator's hot paths do.
// Reported times are scaled by kCalReferenceNs / the calibration's best
// time, which cancels most of the host's swings; the raw values are printed
// too. (A variant that also chased pointers through an 8 MiB table tracked
// the cells worse: its own time swung 2x.)
constexpr double kCalReferenceNs = 550e3;
volatile uint64_t g_sink = 0;

int64_t CalibrationNs() {
  static std::vector<uint64_t> table(size_t{1} << 16);
  const int64_t t0 = NowNs();
  std::fill(table.begin(), table.end(), 0);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  uint64_t acc = 0;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 40000; ++i) {
    uint64_t& slot = table[next() & (table.size() - 1)];
    if ((slot & 1) != 0) {
      acc += slot;
    } else {
      slot = x | 1;
    }
  }
  std::map<uint32_t, uint32_t> m;
  for (uint32_t i = 0; i < 3000; ++i) {
    m[static_cast<uint32_t>(next() % 1024)] += i;
    if (i % 3 == 0) {
      m.erase(static_cast<uint32_t>((x >> 20) % 1024));
    }
  }
  g_sink = acc + m.size();
  return NowNs() - t0;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into the
// library. Disabled, a span costs one branch. Spans stay in memory and are
// written out when the run ends.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // index of the enclosing span, -1 for a root
  int64_t cell = -1;   // cell execution id; -1 outside cells
  int setup_rep = -1;  // set-up repetition; -1 outside set-up
};

class Tracer {
 public:
  void Enable(bool on) { on_ = on; }
  void SetCell(int64_t cell) { cell_ = cell; }
  void SetSetupRep(int rep) { setup_rep_ = rep; }

  int Begin(const char* name) {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), 0, open_, cell_, setup_rep_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void End(int index) {
    if (index < 0) {
      return;
    }
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = NowNs();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  int64_t cell_ = -1;
  int setup_rep_ = -1;
  int open_ = -1;
  std::vector<Span> spans_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(g_tracer.Begin(name)) {}
  ~ScopedSpan() { g_tracer.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string digests;        // committed expected digests (read)
  std::string write_digests;  // write this run's digests here instead
};

// One trace with its oracle, built in set-up and read by every cell.
struct Input {
  std::unique_ptr<pfc::Trace> trace;
  std::shared_ptr<const pfc::TraceContext> context;
  uint64_t fingerprint = 0;
  int cache_blocks = 1280;  // simulated cache size for this trace
};

struct Cell {
  size_t input = 0;
  pfc::SimConfig config;
  PolicyKind kind = PolicyKind::kDemand;
  std::string key;  // trace/policy/dN, unique within a workload
};

struct Workload {
  std::string name;
  int setup_reps = 1;
  std::function<std::vector<Input>(const Options&)> set_up;
  std::function<std::vector<Cell>(const std::vector<Input>&, const Options&)> cells;
  // Cells replayed through RefSim at non-default seeds.
  std::function<bool(const Cell&, const pfc::Trace&)> refsim_sample;
};

// The paper's ten traces with their Table 3 cache sizes (8 KB blocks).
struct PaperTrace {
  const char* name;
  int cache_blocks;
};
const std::vector<PaperTrace>& PaperTraces() {
  static const std::vector<PaperTrace> kTraces = {
      {"dinero", 512},        {"cscope1", 512},         {"cscope2", 1280}, {"cscope3", 1280},
      {"glimpse", 1280},      {"ld", 1280},             {"postgres-join", 1280},
      {"postgres-select", 1280}, {"xds", 1280},         {"synth", 1280},
  };
  return kTraces;
}

const std::vector<PolicyKind>& AllPolicies() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kDemand,     PolicyKind::kDemandLru,         PolicyKind::kFixedHorizon,
      PolicyKind::kAggressive, PolicyKind::kReverseAggressive, PolicyKind::kForestall,
  };
  return kAll;
}

std::string CellKey(const pfc::Trace& trace, PolicyKind kind, int disks) {
  return trace.name() + "/" + pfc::ToString(kind) + "/d" + std::to_string(disks);
}

std::vector<Input> SetUpPaperTraces(uint64_t seed, const pfc::PredictorConfig& predictor) {
  std::vector<Input> inputs;
  for (const PaperTrace& t : PaperTraces()) {
    Input in;
    in.cache_blocks = t.cache_blocks;
    {
      ScopedSpan span("trace.gen");
      in.trace = std::make_unique<pfc::Trace>(pfc::MakeTrace(t.name, seed));
    }
    {
      ScopedSpan span("oracle.fingerprint");
      in.fingerprint = pfc::TraceFingerprint(*in.trace);
    }
    {
      ScopedSpan span("oracle.build");
      in.context = pfc::SharedTraceContext(*in.trace, 1.0, 1, pfc::HintFault{}, predictor);
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

// --- paper-study -------------------------------------------------------------
// Every trace x all six policies at a spread of array sizes from 1 to 16
// disks, oracle hints, reverse aggressive tuned per configuration. Synth,
// by far the longest trace, runs at one size so a pass stays a few seconds.
Workload PaperStudy() {
  Workload w;
  w.name = "paper-study";
  w.setup_reps = 3;
  w.set_up = [](const Options& o) { return SetUpPaperTraces(o.seed, pfc::PredictorConfig{}); };
  w.cells = [](const std::vector<Input>& inputs, const Options&) {
    const std::map<std::string, std::vector<int>> sizes = {
        {"dinero", {1, 16}},        {"cscope1", {2, 8}},          {"cscope2", {1, 4}},
        {"cscope3", {2}},           {"glimpse", {1, 2}},          {"ld", {4, 16}},
        {"postgres-join", {2, 16}}, {"postgres-select", {1, 16}}, {"xds", {2, 8}},
        {"synth", {1}},
    };
    std::vector<Cell> cells;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const pfc::Trace& trace = *inputs[i].trace;
      for (int disks : sizes.at(trace.name())) {
        for (PolicyKind kind : AllPolicies()) {
          Cell c;
          c.input = i;
          c.kind = kind;
          c.config.num_disks = disks;
          c.config.cache_blocks = inputs[i].cache_blocks;
          c.key = CellKey(trace, kind, disks);
          cells.push_back(std::move(c));
        }
      }
    }
    return cells;
  };
  // RefSim forestall is slow on long traces and wide arrays (seconds per
  // cell): sample it only on short traces at up to 4 disks.
  w.refsim_sample = [](const Cell& c, const pfc::Trace& trace) {
    if (trace.size() > 20000 ||
        (c.kind == PolicyKind::kForestall && c.config.num_disks > 4)) {
      return false;
    }
    const std::string& name = trace.name();
    return name == "ld" || name == "postgres-select" ||
           (name == "dinero" && c.kind == PolicyKind::kReverseAggressive);
  };
  return w;
}

// --- long-replay -------------------------------------------------------------
// One seeded stream in the MSR-Cambridge CSV format with the two properties
// the benchmark needs: about 25% writes and a working set far larger than the
// 1280-block cache. It is converted, written to .pfct and replayed streaming
// under write-behind.

constexpr int64_t kReplayRequests = 60000;
constexpr uint64_t kReplayWorkingSet = 32768;       // blocks: 25.6x the cache
constexpr double kReplayWriteFrac = 0.25;
constexpr int64_t kReplayWindowRecords = 4096;  // .pfct window: many windows per trace

struct SplitMix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// Writes the long-replay input. Beyond the write share and the working-set
// size, its shape is a plain choice, not a model of any measured MSR volume:
// each request is one 8 KB block drawn uniformly from the working set, and
// requests arrive 1 ms apart. The ResponseTime column is 0; the converter
// ignores it.
void WriteMsrCsv(const std::string& path, uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(path + ": cannot create: " + std::strerror(errno));
  }
  SplitMix rng{seed ^ 0x6d73722d63737631ULL};
  constexpr uint64_t kGapTicks = 10000;  // 1 ms in 100 ns filetime ticks
  uint64_t ticks = 128166372000000000ULL;  // a 2007 Windows filetime
  for (int64_t i = 0; i < kReplayRequests; ++i) {
    const bool write = rng.Uniform() < kReplayWriteFrac;
    const uint64_t block = rng.Below(kReplayWorkingSet);
    std::fprintf(f, "%" PRIu64 ",bench,0,%s,%" PRIu64 ",8192,0\n", ticks,
                 write ? "Write" : "Read", block * 8192);
    ticks += kGapTicks;
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error(path + ": write failed");
  }
}

std::string CsvPath(const Options& o) { return o.work_dir + "/long-replay.csv"; }
std::string PfctPath(const Options& o) { return o.work_dir + "/long-replay.pfct"; }

Workload LongReplay() {
  Workload w;
  w.name = "long-replay";
  w.setup_reps = 3;
  w.set_up = [](const Options& o) {
    pfc::ConvertOptions convert;
    convert.name = "msr-replay";
    Input in;
    {
      pfc::Trace converted;
      {
        ScopedSpan span("trace.convert");
        pfc::Expected<pfc::Trace> r = pfc::ConvertMsrCsvFile(CsvPath(o), convert);
        if (!r.ok()) {
          throw std::runtime_error("convert: " + r.error());
        }
        converted = std::move(r.value());
      }
      ScopedSpan span("trace.pfct_write");
      pfc::Expected<bool> saved = pfc::SavePfct(converted, PfctPath(o), kReplayWindowRecords);
      if (!saved.ok()) {
        throw std::runtime_error("save: " + saved.error());
      }
    }
    {
      ScopedSpan span("trace.open");
      pfc::Expected<pfc::Trace> t = pfc::Trace::OpenPfctStreaming(PfctPath(o));
      if (!t.ok()) {
        throw std::runtime_error("open: " + t.error());
      }
      in.trace = std::make_unique<pfc::Trace>(std::move(t.value()));
    }
    {
      ScopedSpan span("oracle.fingerprint");
      in.fingerprint = pfc::TraceFingerprint(*in.trace);
    }
    {
      ScopedSpan span("oracle.build");
      in.context = pfc::SharedTraceContext(*in.trace, 1.0, 1);
    }
    std::vector<Input> inputs;
    inputs.push_back(std::move(in));
    return inputs;
  };
  w.cells = [](const std::vector<Input>& inputs, const Options&) {
    std::vector<Cell> cells;
    for (int disks : {1, 4}) {
      for (PolicyKind kind : {PolicyKind::kDemand, PolicyKind::kDemandLru,
                              PolicyKind::kFixedHorizon, PolicyKind::kAggressive}) {
        Cell c;
        c.input = 0;
        c.kind = kind;
        c.config.num_disks = disks;
        c.config.write_through = false;  // write-behind
        c.key = CellKey(*inputs[0].trace, kind, disks);
        cells.push_back(std::move(c));
      }
    }
    return cells;
  };
  w.refsim_sample = [](const Cell& c, const pfc::Trace&) {
    return c.kind == PolicyKind::kDemand && c.config.num_disks == 1;
  };
  return w;
}

// --- degraded-obs ------------------------------------------------------------
// The ten traces x the five online policies x a few array sizes under media
// errors, latency tails, a slow disk and an outage with rebuild; a Markov
// predictor replaces the oracle's hints and the obs collector runs on every
// cell. One cell per trace also keeps its raw events and exports them.

pfc::PredictorConfig MarkovPredictor() {
  pfc::PredictorConfig p;
  p.kind = pfc::PredictorKind::kMarkov;
  p.lookahead = 16;
  return p;
}

pfc::FaultConfig DegradedFaults(uint64_t seed) {
  pfc::FaultConfig f;
  f.media_error_rate = 0.01;
  f.tail_rate = 0.02;
  f.tail_multiplier = 8.0;
  f.slow_disk = pfc::DiskId{1};
  f.slow_factor = 2.0;
  f.slow_after = pfc::TimeNs{0} + pfc::MsToNs(100);
  f.outage_disk = pfc::DiskId{0};
  f.outage_start = pfc::TimeNs{0} + pfc::MsToNs(200);
  f.outage_end = pfc::TimeNs{0} + pfc::MsToNs(700);
  f.rebuild_duration = pfc::MsToNs(300);
  f.rebuild_slow_factor = 3.0;
  f.seed = seed;
  return f;
}

Workload DegradedObs() {
  Workload w;
  w.name = "degraded-obs";
  w.setup_reps = 3;
  w.set_up = [](const Options& o) { return SetUpPaperTraces(o.seed, MarkovPredictor()); };
  w.cells = [](const std::vector<Input>& inputs, const Options& o) {
    std::vector<Cell> cells;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const pfc::Trace& trace = *inputs[i].trace;
      for (int disks : {2, 4, 8}) {
        for (PolicyKind kind : {PolicyKind::kDemand, PolicyKind::kDemandLru,
                                PolicyKind::kFixedHorizon, PolicyKind::kAggressive,
                                PolicyKind::kForestall}) {
          Cell c;
          c.input = i;
          c.kind = kind;
          c.config.num_disks = disks;
          c.config.cache_blocks = inputs[i].cache_blocks;
          c.config.predictor = MarkovPredictor();
          c.config.faults = DegradedFaults(o.seed);
          c.config.obs.collect = true;
          c.config.obs.keep_events = kind == PolicyKind::kForestall && disks == 4;
          c.key = CellKey(trace, kind, disks);
          cells.push_back(std::move(c));
        }
      }
    }
    return cells;
  };
  w.refsim_sample = [](const Cell& c, const pfc::Trace& trace) {
    return trace.size() <= 20000 && c.config.num_disks == 4 &&
           (trace.name() == "ld" || trace.name() == "postgres-select" ||
            trace.name() == "dinero");
  };
  return w;
}

// ---------------------------------------------------------------------------
// Running cells.

struct Exec {
  size_t cell = 0;
  int pass = 0;
  int64_t ns = 0;      // wall time of the whole cell, tuning included
  int64_t cal_ns = 0;  // calibration run just before the cell
  bool threw = false;
  std::string error;
  pfc::RunResult result;  // obs report detached
  pfc::PolicyOptions options;
  int64_t events = 0;
};

struct Pass {
  bool traced = false;
  int64_t wall_ns = 0;
  int64_t refs = 0;
  int64_t window_loads = 0;  // .pfct windows paged in during the pass
  int64_t cal_ns = 0;        // calibration time inside wall_ns
  size_t first_exec = 0;
  size_t end_exec = 0;
};

struct Run {
  std::vector<Exec> execs;
  std::vector<Pass> passes;
  int64_t peak_rss_kib = 0;  // after the first pass; later passes repeat it
};

Exec RunCell(const Cell& cell, const std::vector<Input>& inputs) {
  Exec e;
  const Input& in = inputs[cell.input];
  const int64_t t0 = NowNs();
  {
    ScopedSpan span("cell");
    try {
      if (cell.kind == PolicyKind::kReverseAggressive) {
        ScopedSpan tune("harness.tune");
        pfc::TuneRequest req;
        req.config = cell.config;
        req.fetch_times = kTuneFetchTimes;
        req.batches = kTuneBatches;
        e.options = pfc::TuneReverseAggressiveMany(*in.trace, {req}, /*jobs=*/1)[0];
      }
      std::unique_ptr<pfc::Policy> policy;
      {
        ScopedSpan make("policy.make");
        policy = pfc::MakePolicy(cell.kind, e.options);
      }
      std::unique_ptr<pfc::Simulator> sim;
      {
        ScopedSpan construct("engine.construct");
        sim = std::make_unique<pfc::Simulator>(in.context, cell.config, policy.get());
      }
      {
        ScopedSpan run("engine.run");
        e.result = sim->Run();
      }
      if (e.result.obs != nullptr) {
        e.events = e.result.obs->total_events;
        if (cell.config.obs.keep_events) {
          ScopedSpan exp("obs.export");
          if (pfc::EventsCsvString(e.result.obs->events).empty()) {
            throw std::runtime_error("empty events export");
          }
        }
        e.result.obs.reset();
      }
    } catch (const std::exception& ex) {
      e.threw = true;
      e.error = ex.what();
    }
  }
  e.ns = NowNs() - t0;
  return e;
}

int64_t PeakRssKib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int64_t StreamWindowLoads(const std::vector<Input>& inputs) {
  int64_t loads = 0;
  for (const Input& in : inputs) {
    if (in.trace->stream() != nullptr) {
      loads += in.trace->stream()->stats().window_loads;
    }
  }
  return loads;
}

// Runs whole passes over `cells` until `seconds` have elapsed (at least
// kMinPasses), appending to `run`. Before each pass `set_up` rebuilds
// `inputs`, so set-up samples spread over the run like the passes do.
constexpr int kMinPasses = 3;

void RunPhase(const std::vector<Cell>& cells, const std::function<void()>& set_up,
              const std::vector<Input>& inputs, double seconds, bool traced, Run* run) {
  g_tracer.Enable(traced);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int done = 0;
  while (done < kMinPasses || NowNs() < deadline) {
    set_up();
    pfc::ClearTunedRevAggCache();
    Pass pass;
    pass.traced = traced;
    pass.first_exec = run->execs.size();
    const int64_t loads0 = StreamWindowLoads(inputs);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < cells.size(); ++i) {
      const int64_t cal_ns = CalibrationNs();
      pass.cal_ns += cal_ns;
      g_tracer.SetCell(static_cast<int64_t>(run->execs.size()));
      Exec e = RunCell(cells[i], inputs);
      e.cal_ns = cal_ns;
      e.cell = i;
      e.pass = static_cast<int>(run->passes.size());
      pass.refs += inputs[cells[i].input].trace->size();
      run->execs.push_back(std::move(e));
    }
    pass.wall_ns = NowNs() - t0;
    g_tracer.SetCell(-1);
    pass.window_loads = StreamWindowLoads(inputs) - loads0;
    pass.end_exec = run->execs.size();
    run->passes.push_back(pass);
    if (run->peak_rss_kib == 0) {
      run->peak_rss_kib = PeakRssKib();
    }
    ++done;
  }
  g_tracer.Enable(false);
}

// ---------------------------------------------------------------------------
// Correctness.

// The full RunResult of one cell: the ResultsCsvString row plus every
// field that row leaves out, at full precision.
std::string ResultText(const pfc::RunResult& r) {
  std::string text = pfc::ResultsCsvString({r});
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "pf=%lld/%lld/%lld/%lld/%lld/%lld ns=%lld/%lld/%lld/%lld/%lld/%lld "
                "ms=%a/%a util=%a",
                static_cast<long long>(r.prefetch_issued),
                static_cast<long long>(r.prefetch_filled),
                static_cast<long long>(r.prefetch_failed),
                static_cast<long long>(r.prefetch_useful),
                static_cast<long long>(r.prefetch_useless),
                static_cast<long long>(r.prefetch_late),
                static_cast<long long>(r.compute_time.ns()),
                static_cast<long long>(r.driver_time.ns()),
                static_cast<long long>(r.stall_time.ns()),
                static_cast<long long>(r.elapsed_time.ns()),
                static_cast<long long>(r.degraded_stall_ns.ns()),
                static_cast<long long>(r.outage_stall_ns.ns()), r.avg_fetch_ms,
                r.avg_response_ms, r.avg_disk_util);
  text += buf;
  for (double u : r.per_disk_util) {
    std::snprintf(buf, sizeof(buf), " %a", u);
    text += buf;
  }
  return text;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Balances every result must keep, at any seed.
std::string CheckInvariants(const pfc::RunResult& r) {
  if (r.compute_time + r.driver_time + r.stall_time != r.elapsed_time) {
    return "elapsed != compute + driver + stall";
  }
  if (r.prefetch_issued != r.prefetch_filled + r.prefetch_failed) {
    return "prefetch issued != filled + failed";
  }
  if (r.prefetch_filled != r.prefetch_useful + r.prefetch_useless + r.prefetch_late) {
    return "prefetch filled != useful + useless + late";
  }
  return "";
}

std::map<std::string, std::string> ReadDigests(const std::string& path,
                                               const std::string& workload) {
  std::map<std::string, std::string> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw std::runtime_error(path + ": cannot open digests");
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char w[64] = {0};
    char key[256] = {0};
    char digest[64] = {0};
    if (line[0] == '#' || std::sscanf(line, "%63s %255s %63s", w, key, digest) != 3) {
      continue;
    }
    if (workload == w) {
      out[key] = digest;
    }
  }
  std::fclose(f);
  return out;
}

struct CheckResult {
  std::vector<bool> cell_ok;
  int64_t refsim_cells = 0;
};

CheckResult Verify(const Workload& w, const Options& o, const std::vector<Cell>& cells,
                   const std::vector<Input>& inputs, const Run& run) {
  ScopedSpan span("check.verify");
  CheckResult out;
  out.cell_ok.assign(cells.size(), true);
  std::vector<std::string> why(cells.size());
  std::vector<const Exec*> first(cells.size(), nullptr);
  for (const Exec& e : run.execs) {
    if (e.threw) {
      out.cell_ok[e.cell] = false;
      why[e.cell] = "threw: " + e.error;
      continue;
    }
    const Exec*& f = first[e.cell];
    if (f == nullptr) {
      f = &e;
    } else if (!pfc::ResultsExactlyEqual(f->result, e.result, nullptr) ||
               f->events != e.events) {
      out.cell_ok[e.cell] = false;
      why[e.cell] = "result differs between passes";
    }
  }

  const bool writing = !o.write_digests.empty();
  std::map<std::string, std::string> expected;
  if (!writing && o.seed == kDefaultSeed) {
    expected = ReadDigests(o.digests, w.name);
  }
  std::string digest_lines;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string key = "input/" + inputs[i].trace->name();
    const std::string fp = Hex(inputs[i].fingerprint);
    digest_lines += w.name + " " + key + " " + fp + "\n";
    if (!writing && o.seed == kDefaultSeed && expected[key] != fp) {
      std::fprintf(stderr, "perfbench: %s: trace fingerprint %s, expected %s\n", key.c_str(),
                   fp.c_str(), expected[key].c_str());
      out.cell_ok.assign(cells.size(), false);
    }
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    if (first[c] == nullptr) {
      out.cell_ok[c] = false;
      continue;
    }
    const pfc::RunResult& r = first[c]->result;
    const std::string inv = CheckInvariants(r);
    if (!inv.empty()) {
      out.cell_ok[c] = false;
      why[c] = inv;
    }
    const std::string digest = Hex(Fnv1a(ResultText(r)));
    digest_lines += w.name + " " + cells[c].key + " " + digest + "\n";
    if (writing) {
      continue;
    }
    if (o.seed == kDefaultSeed) {
      if (expected[cells[c].key] != digest) {
        out.cell_ok[c] = false;
        why[c] = "digest " + digest + " != expected '" + expected[cells[c].key] + "'";
      }
    } else if (w.refsim_sample(cells[c], *inputs[cells[c].input].trace)) {
      ++out.refsim_cells;
      std::vector<std::string> diffs;
      const pfc::RunResult ref = pfc::RunRefSim(*inputs[cells[c].input].trace, cells[c].config,
                                                cells[c].kind, first[c]->options);
      if (!pfc::ResultsExactlyEqual(r, ref, &diffs)) {
        out.cell_ok[c] = false;
        why[c] = "differs from RefSim: " + (diffs.empty() ? std::string("?") : diffs[0]);
      }
    }
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    if (!out.cell_ok[c]) {
      std::fprintf(stderr, "perfbench: FAILED %s: %s\n", cells[c].key.c_str(), why[c].c_str());
    }
  }
  if (writing) {
    std::FILE* f = std::fopen(o.write_digests.c_str(), "a");
    if (f == nullptr || std::fputs(digest_lines.c_str(), f) < 0 || std::fclose(f) != 0) {
      throw std::runtime_error(o.write_digests + ": cannot write digests");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;
};

// Each cell's best (lowest) time over the passes of one phase, in ns,
// scaled by kCalReferenceNs / the best of the calibrations run just before
// that cell's executions (1 when `calibrated` is false). Bursts of
// interference disturb the best of several passes least, and the
// calibration cancels the slower swings.
std::vector<double> BestCellNs(const Run& run, size_t ncells, bool traced, bool calibrated) {
  std::vector<double> best(ncells, 0.0);
  std::vector<double> best_cal(ncells, 0.0);
  for (const Exec& e : run.execs) {
    if (run.passes[static_cast<size_t>(e.pass)].traced == traced) {
      double& b = best[e.cell];
      b = b == 0.0 ? static_cast<double>(e.ns) : std::min(b, static_cast<double>(e.ns));
      double& c = best_cal[e.cell];
      c = c == 0.0 ? static_cast<double>(e.cal_ns) : std::min(c, static_cast<double>(e.cal_ns));
    }
  }
  if (calibrated) {
    for (size_t i = 0; i < ncells; ++i) {
      best[i] *= kCalReferenceNs / best_cal[i];
    }
  }
  return best;
}

// References simulated per second of a pass made of every cell's best time.
double RefsPerSec(const Run& run, size_t ncells, bool traced, bool calibrated) {
  const Pass& p = run.passes.at(0);
  double ns = 0.0;
  for (double b : BestCellNs(run, ncells, traced, calibrated)) {
    ns += b;
  }
  return static_cast<double>(p.refs) / (ns * 1e-9);
}

int64_t PhasePasses(const Run& run, bool traced) {
  return std::count_if(run.passes.begin(), run.passes.end(),
                       [traced](const Pass& p) { return p.traced == traced; });
}

// One set-up repetition: its wall time and the calibration run before it.
struct SetupSample {
  int64_t ns = 0;
  int64_t cal_ns = 0;
};

double SetupSeconds(const std::vector<SetupSample>& setups, bool calibrated) {
  std::vector<double> v;
  for (const SetupSample& s : setups) {
    const double scale = calibrated ? kCalReferenceNs / static_cast<double>(s.cal_ns) : 1.0;
    v.push_back(static_cast<double>(s.ns) * 1e-9 * scale);
  }
  return Median(v);
}

// The timing metrics, calibrated for BENCHMARK.json or raw for the log.
std::vector<Metric> EndToEnd(const std::vector<Cell>& cells, const Run& run,
                             const std::vector<SetupSample>& setups, const CheckResult& check,
                             bool calibrated) {
  std::vector<Metric> m;
  const int64_t ncells = static_cast<int64_t>(cells.size());
  m.push_back({"refs_per_s", "refs/s", RefsPerSec(run, cells.size(), false, calibrated),
               PhasePasses(run, false)});
  // Percentiles over cells of each cell's best time.
  std::vector<double> cell_ms = BestCellNs(run, cells.size(), false, calibrated);
  for (double& v : cell_ms) {
    v *= 1e-6;
  }
  m.push_back({"cell_ms_p50", "ms", Percentile(cell_ms, 0.50), ncells});
  m.push_back({"cell_ms_p90", "ms", Percentile(cell_ms, 0.90), ncells});
  m.push_back({"setup_s", "s", SetupSeconds(setups, calibrated),
               static_cast<int64_t>(setups.size())});
  m.push_back({"peak_rss_mb", "MiB", static_cast<double>(run.peak_rss_kib) / 1024.0, 1});
  int64_t ok = 0;
  for (bool b : check.cell_ok) {
    ok += b ? 1 : 0;
  }
  m.push_back({"ok_frac", "ratio", static_cast<double>(ok) / static_cast<double>(ncells),
               ncells});
  return m;
}

struct Probes {
  double next_use_ns = 0;
  int64_t next_use_queries = 0;
  double predict_build_s = 0;
  double obs_overhead_frac = 0;
  double check_s = 0;
};

// Benchmark-side measurements made only in the traced run.
Probes RunProbes(const std::vector<Cell>& cells, const std::vector<Input>& inputs) {
  Probes p;
  // The oracle's core query over every position of every trace.
  std::vector<pfc::BlockId> blocks;
  int64_t query_ns = 0;
  for (const Input& in : inputs) {
    const int64_t n = in.trace->size();
    blocks.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      blocks[static_cast<size_t>(i)] = in.trace->block(pfc::TracePos{i});
    }
    const pfc::NextRefIndex& index = in.context->index();
    ScopedSpan span("oracle.next_use_sweep");
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < n; ++i) {
      g_sink = g_sink + static_cast<uint64_t>(
                            index.NextUseAt(blocks[static_cast<size_t>(i)], pfc::TracePos{i + 1}).v());
    }
    query_ns += NowNs() - t0;
    p.next_use_queries += n;
  }
  p.next_use_ns = static_cast<double>(query_ns) / static_cast<double>(p.next_use_queries);

  // Predictor hint streams, for workloads whose cells use one.
  if (!cells.empty() && cells[0].config.predictor.enabled()) {
    const int64_t t0 = NowNs();
    for (const Input& in : inputs) {
      ScopedSpan span("predict.build");
      const pfc::PredictedHints hints =
          pfc::BuildPredictedHints(*in.trace, cells[0].config.predictor);
      g_sink = g_sink + hints.claims.size();
    }
    p.predict_build_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }

  // Cost of obs collection: Run with the workload's obs settings against
  // Run with obs off, cell by cell, back to back.
  if (!cells.empty() && cells[0].config.obs.collect) {
    int64_t on_ns = 0;
    int64_t off_ns = 0;
    for (const Cell& c : cells) {
      for (bool obs : {true, false}) {
        pfc::SimConfig config = c.config;
        if (!obs) {
          config.obs = pfc::ObsOptions{};
        }
        const Input& in = inputs[c.input];
        std::unique_ptr<pfc::Policy> policy = pfc::MakePolicy(c.kind, {});
        pfc::Simulator sim(in.context, config, policy.get());
        const int64_t t0 = NowNs();
        const pfc::RunResult r = sim.Run();
        (obs ? on_ns : off_ns) += NowNs() - t0;
        g_sink = g_sink + static_cast<uint64_t>(r.fetches);
      }
    }
    p.obs_overhead_frac = static_cast<double>(on_ns) / static_cast<double>(off_ns) - 1.0;
  }
  return p;
}

std::vector<Metric> PerLayer(const std::vector<Cell>& cells, const std::vector<Input>& inputs,
                             const Run& run, const Probes& probes) {
  const std::vector<Span>& spans = g_tracer.spans();
  auto dur = [](const Span& s) { return static_cast<double>(s.end_ns - s.start_ns); };

  // Set-up layers: per traced repetition sums, median over repetitions.
  std::map<int, double> setup_rep_ns;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "setup") == 0) {
      setup_rep_ns[s.setup_rep] = dur(s);
    }
  }
  const int64_t reps = static_cast<int64_t>(setup_rep_ns.size());
  auto setup_median_s = [&](const char* name) {
    std::map<int, double> per_rep;
    for (const auto& [rep, ns] : setup_rep_ns) {
      per_rep[rep] = 0.0;
    }
    for (const Span& s : spans) {
      if (s.setup_rep >= 0 && std::strcmp(s.name, name) == 0) {
        per_rep[s.setup_rep] += dur(s) * 1e-9;
      }
    }
    std::vector<double> v;
    for (const auto& [rep, sec] : per_rep) {
      v.push_back(sec);
    }
    return Median(v);
  };

  // Timed layers: per traced pass sums, median over passes.
  std::vector<size_t> traced_passes;
  for (size_t p = 0; p < run.passes.size(); ++p) {
    if (run.passes[p].traced) {
      traced_passes.push_back(p);
    }
  }
  const size_t npass = traced_passes.size();
  std::map<size_t, size_t> pass_slot;  // run pass index -> slot in traced_passes
  for (size_t i = 0; i < npass; ++i) {
    pass_slot[traced_passes[i]] = i;
  }
  struct PassSums {
    double tune_ns = 0;
    double cell_ns = 0;
    double export_ns = 0;
    double run_ns = 0;
    double demand_run_ns = 0;
    std::map<std::string, double> policy_run_ns;
    int64_t tunes = 0;
  };
  std::vector<PassSums> sums(npass);
  std::vector<double> construct_us;
  for (const Span& s : spans) {
    if (s.cell < 0) {
      continue;
    }
    const Exec& e = run.execs[static_cast<size_t>(s.cell)];
    PassSums& ps = sums[pass_slot.at(static_cast<size_t>(e.pass))];
    if (std::strcmp(s.name, "harness.tune") == 0) {
      ps.tune_ns += dur(s);
      ++ps.tunes;
    } else if (std::strcmp(s.name, "cell") == 0) {
      ps.cell_ns += dur(s);
    } else if (std::strcmp(s.name, "obs.export") == 0) {
      ps.export_ns += dur(s);
    } else if (std::strcmp(s.name, "engine.construct") == 0) {
      construct_us.push_back(dur(s) * 1e-3);
    } else if (std::strcmp(s.name, "engine.run") == 0) {
      const Cell& c = cells[e.cell];
      ps.run_ns += dur(s);
      ps.policy_run_ns[pfc::ToString(c.kind)] += dur(s);
      if (c.kind == PolicyKind::kDemand) {
        ps.demand_run_ns += dur(s);
      }
    }
  }

  // Simulated work of one pass (deterministic, so the first traced pass).
  const Pass& p0 = run.passes[traced_passes.at(0)];
  int64_t ios = 0, retries = 0, failed = 0, issued = 0, useful = 0, events = 0;
  int64_t demand_refs = 0;
  double util = 0, outage_s = 0;
  std::map<std::string, int64_t> policy_refs;
  for (size_t i = p0.first_exec; i < p0.end_exec; ++i) {
    const Exec& e = run.execs[i];
    const pfc::RunResult& r = e.result;
    const int64_t refs = inputs[cells[e.cell].input].trace->size();
    ios += r.fetches + r.flushes;
    retries += r.retries;
    failed += r.failed_requests;
    issued += r.prefetch_issued;
    useful += r.prefetch_useful;
    events += e.events;
    util += r.avg_disk_util;
    outage_s += r.outage_stall_sec();
    policy_refs[pfc::ToString(cells[e.cell].kind)] += refs;
    if (cells[e.cell].kind == PolicyKind::kDemand) {
      demand_refs += refs;
    }
  }
  const double ncell = static_cast<double>(p0.end_exec - p0.first_exec);

  auto pass_median = [&](const std::function<double(size_t)>& f) {
    std::vector<double> v;
    for (size_t i = 0; i < npass; ++i) {
      v.push_back(f(i));
    }
    return Median(v);
  };
  auto wall_ns = [&](size_t i) {
    return static_cast<double>(run.passes[traced_passes[i]].wall_ns);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const int64_t tune_grid = static_cast<int64_t>(kTuneFetchTimes.size() * kTuneBatches.size());

  std::vector<Metric> m;
  const int64_t ns = static_cast<int64_t>(npass);
  m.push_back({"trace.gen_s", "s", setup_median_s("trace.gen"), reps});
  m.push_back({"trace.convert_s", "s", setup_median_s("trace.convert"), reps});
  m.push_back({"trace.pfct_write_s", "s", setup_median_s("trace.pfct_write"), reps});
  m.push_back({"trace.stream_window_loads", "count",
               pass_median([&](size_t i) {
                 return static_cast<double>(run.passes[traced_passes[i]].window_loads);
               }),
               ns});
  m.push_back({"oracle.fingerprint_s", "s", setup_median_s("oracle.fingerprint"), reps});
  m.push_back({"oracle.build_s", "s", setup_median_s("oracle.build"), reps});
  m.push_back({"oracle.next_use_ns", "ns", probes.next_use_ns, probes.next_use_queries});
  m.push_back({"predict.build_s", "s", probes.predict_build_s, 1});
  m.push_back({"harness.tune_s", "s", pass_median([&](size_t i) { return sums[i].tune_ns * 1e-9; }),
               ns});
  m.push_back({"harness.tune_runs", "count",
               static_cast<double>(sums.at(0).tunes * tune_grid), ns});
  m.push_back({"harness.tune_share", "ratio",
               pass_median([&](size_t i) { return ratio(sums[i].tune_ns, wall_ns(i)); }), ns});
  m.push_back({"harness.runner_overhead_s", "s",
               pass_median([&](size_t i) {
                 const double cal = static_cast<double>(run.passes[traced_passes[i]].cal_ns);
                 return (wall_ns(i) - cal - sums[i].cell_ns) * 1e-9;
               }),
               ns});
  m.push_back({"engine.construct_us", "us", Median(construct_us),
               static_cast<int64_t>(construct_us.size())});
  m.push_back({"engine.ns_per_ref", "ns",
               pass_median([&](size_t i) {
                 return ratio(sums[i].demand_run_ns, static_cast<double>(demand_refs));
               }),
               ns});
  m.push_back({"engine.ns_per_io", "ns",
               pass_median([&](size_t i) {
                 return ratio(sums[i].run_ns, static_cast<double>(ios + retries));
               }),
               ns});
  for (PolicyKind kind : AllPolicies()) {
    const std::string name = pfc::ToString(kind);
    m.push_back({"policy." + name + ".ns_per_ref", "ns",
                 pass_median([&](size_t i) {
                   auto it = sums[i].policy_run_ns.find(name);
                   const double run_ns = it == sums[i].policy_run_ns.end() ? 0.0 : it->second;
                   return ratio(run_ns, static_cast<double>(policy_refs[name]));
                 }),
                 ns});
  }
  m.push_back({"policy.prefetch_useful_frac", "ratio",
               ratio(static_cast<double>(useful), static_cast<double>(issued)), 1});
  m.push_back({"disk.ios", "count", static_cast<double>(ios), 1});
  m.push_back({"disk.retries", "count", static_cast<double>(retries), 1});
  m.push_back({"disk.failed_requests", "count", static_cast<double>(failed), 1});
  m.push_back({"disk.util", "ratio", ratio(util, ncell), static_cast<int64_t>(ncell)});
  m.push_back({"disk.outage_stall_s", "s", outage_s, 1});
  m.push_back({"obs.overhead_frac", "ratio", probes.obs_overhead_frac,
               static_cast<int64_t>(cells.size())});
  m.push_back({"obs.events", "count", static_cast<double>(events), 1});
  m.push_back({"obs.export_s", "s",
               pass_median([&](size_t i) { return sums[i].export_ns * 1e-9; }), ns});
  m.push_back({"check.verify_s", "s", probes.check_s, 1});
  m.push_back({"bench.trace_overhead_frac", "ratio",
               ratio(RefsPerSec(run, cells.size(), false, true),
                     RefsPerSec(run, cells.size(), true, true)) -
                   1.0,
               static_cast<int64_t>(run.passes.size())});
  return m;
}

// Per span name: count, total and self time (duration minus the time its
// child spans cover).
void PrintSelfTimes(std::FILE* out) {
  const std::vector<Span>& spans = g_tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    ++a.count;
    a.total_ns += spans[i].end_ns - spans[i].start_ns;
    a.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
  std::fprintf(out, "# %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : by_name) {
    std::fprintf(out, "# %-24s %8lld %12.3f %12.3f\n", name.c_str(),
                 static_cast<long long>(a.count), static_cast<double>(a.total_ns) * 1e-6,
                 static_cast<double>(a.self_ns) * 1e-6);
  }
}

void WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(path + ": cannot write spans");
  }
  const std::vector<Span>& spans = g_tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"cell\": %lld, \"setup_rep\": %d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, static_cast<long long>(s.cell),
                 s.setup_rep);
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error(path + ": cannot write spans");
  }
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) {
    return "unknown";
  }
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-30s %16.6g %-8s n=%lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o->trace = value == "1";
    } else if (arg == "--work-dir") {
      o->work_dir = value;
    } else if (arg == "--digests") {
      o->digests = value;
    } else if (arg == "--write-digests") {
      o->write_digests = value;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 &&
         (!o->digests.empty() || !o->write_digests.empty());
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR (--digests FILE | --write-digests FILE)\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench: refusing to report from a non-optimised build\n");
  return 3;
#endif
  std::vector<Workload> all = {PaperStudy(), LongReplay(), DegradedObs()};
  const Workload* w = nullptr;
  for (const Workload& cand : all) {
    if (cand.name == o.workload) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (mkdir(o.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", o.work_dir.c_str());
    return 1;
  }
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %llu, "
      "\"held_out_seed\": %llu, \"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      w->name.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed), o.seconds, o.trace ? 1 : 0,
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);

  if (w->name == "long-replay") {
    WriteMsrCsv(CsvPath(o), o.seed);
  }

  // Set-up, setup_reps times in a row; the last repetition's inputs are
  // the ones the cells use.
  std::vector<Input> inputs;
  std::vector<SetupSample> setups;
  auto set_up = [&]() {
    for (int i = 0; i < w->setup_reps; ++i) {
      inputs.clear();
      pfc::ClearTraceContextCache();
      SetupSample sample;
      sample.cal_ns = CalibrationNs();
      g_tracer.SetSetupRep(static_cast<int>(setups.size()));
      const int64_t t0 = NowNs();
      {
        ScopedSpan span("setup");
        inputs = w->set_up(o);
      }
      sample.ns = NowNs() - t0;
      setups.push_back(sample);
      g_tracer.SetSetupRep(-1);
    }
  };
  set_up();
  const std::vector<Cell> cells = w->cells(inputs, o);

  // Untimed warm-up: the first cell of each policy.
  std::vector<PolicyKind> warmed;
  for (const Cell& c : cells) {
    if (std::find(warmed.begin(), warmed.end(), c.kind) == warmed.end()) {
      warmed.push_back(c.kind);
      (void)RunCell(c, inputs);
    }
  }

  Run run;
  if (o.trace) {
    RunPhase(cells, set_up, inputs, o.seconds / 2, false, &run);
    RunPhase(cells, set_up, inputs, o.seconds / 2, true, &run);
  } else {
    RunPhase(cells, set_up, inputs, o.seconds, false, &run);
  }

  Probes probes;
  if (o.trace) {
    g_tracer.Enable(true);
    probes = RunProbes(cells, inputs);
  }
  const int64_t c0 = NowNs();
  const CheckResult check = Verify(*w, o, cells, inputs, run);
  probes.check_s = static_cast<double>(NowNs() - c0) * 1e-9;
  g_tracer.Enable(false);

  int64_t failed = 0;
  for (const Exec& e : run.execs) {
    failed += (e.threw || !check.cell_ok[e.cell]) ? 1 : 0;
  }
  const int64_t attempted = static_cast<int64_t>(run.execs.size());
  const std::vector<Metric> e2e = EndToEnd(cells, run, setups, check, true);
  std::vector<double> pass_s;
  for (const Pass& p : run.passes) {
    pass_s.push_back(static_cast<double>(p.wall_ns) * 1e-9);
  }
  std::printf(
      "# %s: %zu cells, %zu passes of median %.3f s, %lld executions, %lld checked against "
      "RefSim in %.3f s\n",
      w->name.c_str(), cells.size(), run.passes.size(), Median(pass_s),
      static_cast<long long>(attempted), static_cast<long long>(check.refsim_cells),
      probes.check_s);
  PrintMetrics(e2e);
  std::vector<double> cal_us;
  for (const Exec& e : run.execs) {
    cal_us.push_back(static_cast<double>(e.cal_ns) * 1e-3);
  }
  std::printf("# calibration: best %.1f us, median %.1f us, reference %.1f us; uncalibrated:\n",
              *std::min_element(cal_us.begin(), cal_us.end()), Median(cal_us),
              kCalReferenceNs * 1e-3);
  PrintMetrics(EndToEnd(cells, run, setups, check, false));
  std::vector<Metric> reported = e2e;
  if (o.trace) {
    reported = PerLayer(cells, inputs, run, probes);
    PrintMetrics(reported);
    PrintSelfTimes(stdout);
    const std::string spans_path = o.work_dir + "/spans-" + w->name + ".jsonl";
    WriteSpans(spans_path);
    std::printf("# spans written to %s\n", spans_path.c_str());
  }
  PrintResult(failed == 0, attempted, failed, reported);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc moves its mmap and trim thresholds as large blocks are freed, and
  // where they land depends on the seed's allocation sizes, which made
  // peak_rss_mb jump between two levels from seed to seed. Fix them at the
  // maximum that adjustment can reach, so every run starts in that state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
