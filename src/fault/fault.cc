#include "fault/fault.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/random.h"

namespace rlcut::fault {
namespace {

uint64_t HashString(const std::string& s) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct SiteState {
  FaultRule rule;
  uint64_t site_hash = 0;
  int64_t hits = 0;
  int64_t fires = 0;
};

struct Injector {
  uint64_t seed = 1;
  std::unordered_map<std::string, SiteState> sites;
};

std::mutex g_mu;
Injector g_injector;                       // guarded by g_mu
std::atomic<bool> g_armed{false};          // fast disarmed check
std::atomic<int64_t> g_step_context{-1};

bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool IsKnownSite(const std::string& name) {
  for (const SiteInfo& info : KnownSites()) {
    if (name == info.name) return true;
  }
  return false;
}

}  // namespace

bool FaultSchedule::Parse(const std::string& spec, uint64_t seed,
                          FaultSchedule* out, std::string* error) {
  out->seed = seed;
  out->rules.clear();
  std::istringstream stream(spec);
  std::string clause;
  while (std::getline(stream, clause, ';')) {
    if (clause.empty()) continue;
    const size_t colon = clause.find(':');
    if (colon == std::string::npos || colon == 0) {
      if (error != nullptr) *error = "expected site:key=value in '" + clause + "'";
      return false;
    }
    FaultRule rule;
    rule.site = clause.substr(0, colon);
    if (!IsKnownSite(rule.site)) {
      if (error != nullptr) *error = "unknown fault site '" + rule.site + "'";
      return false;
    }
    std::istringstream params(clause.substr(colon + 1));
    std::string kv;
    bool has_trigger = false;
    while (std::getline(params, kv, ',')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) *error = "expected key=value in '" + kv + "'";
        return false;
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      bool ok = false;
      if (key == "prob") {
        ok = ParseDouble(value, &rule.probability) &&
             rule.probability >= 0 && rule.probability <= 1;
        has_trigger = has_trigger || rule.probability > 0;
      } else if (key == "nth") {
        ok = ParseInt64(value, &rule.nth) && rule.nth >= 1;
        has_trigger = true;
      } else if (key == "steps") {
        const size_t dash = value.find('-');
        if (dash == std::string::npos) {
          ok = ParseInt64(value, &rule.step_lo);
          rule.step_hi = rule.step_lo;
        } else {
          ok = ParseInt64(value.substr(0, dash), &rule.step_lo) &&
               ParseInt64(value.substr(dash + 1), &rule.step_hi) &&
               rule.step_lo <= rule.step_hi;
        }
      } else if (key == "max") {
        ok = ParseInt64(value, &rule.max_fires) && rule.max_fires >= 1;
      } else if (key == "amount") {
        ok = ParseInt64(value, &rule.amount) && rule.amount >= 0;
      }
      if (!ok) {
        if (error != nullptr) {
          *error = "bad parameter '" + kv + "' for site " + rule.site;
        }
        return false;
      }
    }
    if (!has_trigger) {
      if (error != nullptr) {
        *error = "site " + rule.site + " needs a prob= or nth= trigger";
      }
      return false;
    }
    out->rules.push_back(std::move(rule));
  }
  return true;
}

std::string FaultSchedule::ToSpec() const {
  std::ostringstream os;
  bool first_rule = true;
  for (const FaultRule& rule : rules) {
    if (!first_rule) os << ';';
    first_rule = false;
    os << rule.site << ':';
    bool first_kv = true;
    auto emit = [&](const std::string& kv) {
      if (!first_kv) os << ',';
      first_kv = false;
      os << kv;
    };
    if (rule.probability > 0) emit("prob=" + std::to_string(rule.probability));
    if (rule.nth >= 1) emit("nth=" + std::to_string(rule.nth));
    if (rule.step_lo >= 0) {
      emit("steps=" + std::to_string(rule.step_lo) + "-" +
           std::to_string(rule.step_hi));
    }
    if (rule.max_fires >= 0) emit("max=" + std::to_string(rule.max_fires));
    if (rule.amount > 0) emit("amount=" + std::to_string(rule.amount));
  }
  return os.str();
}

void Arm(const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_injector.seed = schedule.seed;
  g_injector.sites.clear();
  for (const FaultRule& rule : schedule.rules) {
    SiteState state;
    state.rule = rule;
    state.site_hash = HashString(rule.site);
    g_injector.sites.emplace(rule.site, std::move(state));
  }
  g_armed.store(!g_injector.sites.empty(), std::memory_order_release);
}

void Disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.store(false, std::memory_order_release);
  g_injector.sites.clear();
}

bool Armed() { return g_armed.load(std::memory_order_acquire); }

void SetStepContext(int64_t step) {
  g_step_context.store(step, std::memory_order_relaxed);
}

bool ShouldFire(const char* site, int64_t* amount) {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = g_injector.sites.find(site);
  if (it == g_injector.sites.end()) return false;
  SiteState& state = it->second;
  const FaultRule& rule = state.rule;
  const int64_t hit = ++state.hits;
  if (rule.step_lo >= 0) {
    const int64_t step = g_step_context.load(std::memory_order_relaxed);
    if (step < rule.step_lo || step > rule.step_hi) return false;
  }
  if (rule.max_fires >= 0 && state.fires >= rule.max_fires) return false;
  bool fire = false;
  if (rule.nth >= 1 && hit == rule.nth) fire = true;
  if (!fire && rule.probability > 0) {
    // One SplitMix64 step decorrelates (seed, site, hit) into an
    // independent per-hit draw.
    const uint64_t draw = SplitMix64(g_injector.seed ^ state.site_hash ^
                                     static_cast<uint64_t>(hit));
    // Top 53 bits to a uniform double in [0, 1).
    const double u =
        static_cast<double>(draw >> 11) * 0x1.0p-53;
    fire = u < rule.probability;
  }
  if (fire) {
    ++state.fires;
    if (amount != nullptr) *amount = rule.amount;
  }
  return fire;
}

uint64_t FireCount(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = g_injector.sites.find(site);
  return it == g_injector.sites.end()
             ? 0
             : static_cast<uint64_t>(it->second.fires);
}

uint64_t TotalFires() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t total = 0;
  for (const auto& [name, state] : g_injector.sites) {
    total += static_cast<uint64_t>(state.fires);
  }
  return total;
}

void CancellableSleepMs(int64_t ms, const std::atomic<bool>* cancel) {
  for (int64_t slept = 0; slept < ms; ++slept) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

const std::vector<SiteInfo>& KnownSites() {
  static const std::vector<SiteInfo> kSites = {
      {"threadpool.task_throw",
       "a chunk a helper claimed throws before running; the pool "
       "records the error"},
      {"threadpool.worker_stall",
       "a helper sleeps `amount` ms (default 20) before joining a run"},
      {"threadpool.worker_crash",
       "a helper loses the chunk it claimed and exits; the pool spawns a "
       "replacement"},
      {"threadpool.caller_stall",
       "the caller of a team run claims no chunk until a helper has "
       "claimed one (at most `amount` ms, default 1000)"},
      {"trainer.chunk_stall",
       "an agent chunk a helper claimed stalls `amount` ms (default 30, "
       "cancellable) before scoring"},
      {"trainer.chunk_abandon",
       "an agent chunk a helper claimed returns without publishing its "
       "scores"},
      {"checkpoint.open_fail", "checkpoint temp file cannot be opened"},
      {"checkpoint.short_write",
       "checkpoint write is torn after `amount` bytes"},
      {"checkpoint.fsync_fail", "checkpoint fsync reports an I/O error"},
      {"checkpoint.rename_fail",
       "checkpoint temp->final rename fails; the temp is removed"},
      {"plan.open_fail", "plan temp file cannot be opened"},
      {"plan.short_write", "plan write is torn after `amount` bytes"},
      {"plan.fsync_fail", "plan fsync reports an I/O error"},
      {"plan.rename_fail",
       "plan temp->final rename fails; the temp is removed"},
      {"session.ingest_fail",
       "a streaming session rejects a micro-batch at the ingest site"},
      {"session.publish_fail",
       "a streaming session fails to publish its current plan"},
      {"net.connect_fail", "dialing a replica endpoint fails"},
      {"net.send_fail",
       "a transport send reports an I/O error without delivering"},
      {"net.recv_timeout",
       "a transport recv returns no data within its timeout"},
      {"net.frame_corrupt",
       "a frame is delivered with a flipped byte (checksum catches it)"},
      {"net.disconnect",
       "the connection drops; subsequent sends and recvs fail"},
  };
  return kSites;
}

}  // namespace rlcut::fault
