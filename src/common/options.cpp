#include "common/options.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace nemo {

Options::Options(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("expected --key[=value], got: " + arg);
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos)
      values_[arg] = "1";
    else
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
}

void Options::declare(const std::string& key, const std::string& help) {
  declared_.emplace_back(key, help);
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

long Options::get_int(const std::string& key, long def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return std::strtol(it->second.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

std::size_t Options::get_size(const std::string& key, std::size_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_size(it->second);
}

bool Options::get_flag(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second != "0" && it->second != "false";
}

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::size_t env_size(const char* name, std::size_t def) {
  auto v = env_str(name);
  if (!v) return def;
  if (*v == "off" || *v == "never") return static_cast<std::size_t>(-1);
  try {
    return parse_size(*v);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(name) + ": bad size value '" +
                                *v + "'");
  }
}

long env_long(const char* name, long def) {
  auto v = env_str(name);
  if (!v) return def;
  char* end = nullptr;
  long out = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0')
    throw std::invalid_argument(std::string(name) + ": bad integer value '" +
                                *v + "'");
  return out;
}

bool env_flag(const char* name, bool def) {
  auto v = env_str(name);
  if (!v) return def;
  if (*v == "0" || *v == "false" || *v == "off" || *v == "no") return false;
  if (*v == "1" || *v == "true" || *v == "on" || *v == "yes") return true;
  throw std::invalid_argument(std::string(name) + ": bad boolean value '" +
                              *v + "' (want 0/1/on/off/true/false/yes/no)");
}

// ---------------------------------------------------------------------------
// Knob registry. One row per NEMO_* environment variable; kept alphabetical
// so the `nemo-tune --knobs` dump doubles as the reference table. Adding a
// knob means adding a row here — the typed accessors assert membership, so
// an unregistered spelling trips NEMO_ASSERT in debug builds.
// ---------------------------------------------------------------------------

const std::vector<KnobInfo>& Config::knobs() {
  static const std::vector<KnobInfo> table = {
      {"NEMO_BACKEND", KnobType::kString, "tuned",
       "tune", "preferred rendezvous backend: default|vmsplice|knem|cma"},
      {"NEMO_CMA", KnobType::kString, "on",
       "lmt", "cross-memory attach: on|off (nosyscall simulates EPERM)"},
      {"NEMO_COLL", KnobType::kString, "auto",
       "coll", "collective algorithm family: auto|shm|p2p"},
      {"NEMO_COLL_ACTIVATION", KnobType::kSize, "tuned",
       "coll", "min payload bytes before collectives use the shm arena"},
      {"NEMO_COLL_SLOT_BYTES", KnobType::kSize, "tuned",
       "coll", "per-rank payload slot bytes in the collective arena"},
      {"NEMO_DMA_MIN", KnobType::kSize, "formula",
       "lmt", "min bytes before KNEM offloads copies to DMA (KnemMode::kAuto "
              "only; the default kSyncCopy ignores it)"},
      {"NEMO_FASTBOX", KnobType::kFlag, "1",
       "shm", "enable the per-pair fastbox rings"},
      {"NEMO_FASTBOX_MAX", KnobType::kSize, "tuned",
       "shm", "max payload bytes eligible for the fastbox"},
      {"NEMO_FAULT", KnobType::kString, "unset",
       "resil", "fault injection: <rank>:<site>:kill"},
      {"NEMO_LMT", KnobType::kString, "auto",
       "lmt", "large-message backend: auto|shm|vmsplice|writev|knem|cma"},
      {"NEMO_LMT_ACTIVATION", KnobType::kSize, "tuned",
       "lmt", "eager/rendezvous switchover bytes"},
      {"NEMO_NT_MIN", KnobType::kSize, "tuned",
       "shm", "min bytes before copies use non-temporal stores"},
      {"NEMO_NUMA", KnobType::kFlag, "1",
       "shm", "enable NUMA-aware placement of shared structures"},
      {"NEMO_NUMA_PLACEMENT", KnobType::kString, "auto",
       "shm",
       "ring placement policy: auto|receiver|sender|interleave|first-touch"},
      {"NEMO_ON_PEER_DEATH", KnobType::kString, "abort",
       "resil", "peer-death policy: abort|degrade"},
      {"NEMO_PACK_NT_MIN", KnobType::kSize, "tuned",
       "core", "min bytes before datatype pack uses non-temporal stores"},
      {"NEMO_PEER_TIMEOUT_MS", KnobType::kSize, "30000",
       "resil", "bounded-wait verdict timeout in ms; off disarms"},
      {"NEMO_RING_BUFS", KnobType::kInt, "4",
       "shm", "copy-ring buffers per pair"},
      {"NEMO_RING_BUF_BYTES", KnobType::kSize, "32KiB",
       "shm", "bytes per copy-ring buffer"},
      {"NEMO_SIMD", KnobType::kString, "auto",
       "simd", "reduction kernel: auto|scalar|avx2|avx512"},
      {"NEMO_TRACE", KnobType::kString, "off",
       "trace", "tracing mode: off|rings|full"},
      {"NEMO_TRACE_OUT", KnobType::kString, "unset",
       "trace", "write a nemo-trace/1 dump to this path at exit"},
      {"NEMO_TRACE_RING_SLOTS", KnobType::kInt, "8192",
       "trace", "per-rank trace ring capacity in events"},
      {"NEMO_TUNE", KnobType::kFlag, "1",
       "tune", "consult the fingerprinted tuning cache"},
      {"NEMO_TUNE_CACHE", KnobType::kString, "fingerprinted path",
       "tune", "tuning cache file"},
      {"NEMO_WORLD_MODE", KnobType::kString, "threads",
       "core", "rank launch mode: threads|procs"},
  };
  return table;
}

const KnobInfo* Config::find(const char* name) {
  for (const auto& k : knobs())
    if (std::string_view(k.name) == name) return &k;
  return nullptr;
}

namespace {
const KnobInfo& registered(const char* name) {
  const KnobInfo* k = Config::find(name);
  NEMO_ASSERT_MSG(k != nullptr, "unregistered NEMO_* knob");
  return *k;
}
}  // namespace

std::optional<std::string> Config::str(const char* name) {
  (void)registered(name);
  return env_str(name);
}

std::size_t Config::size(const char* name, std::size_t def) {
  NEMO_ASSERT(registered(name).type == KnobType::kSize);
  return env_size(name, def);
}

long Config::integer(const char* name, long def) {
  NEMO_ASSERT(registered(name).type == KnobType::kInt);
  return env_long(name, def);
}

bool Config::flag(const char* name, bool def) {
  NEMO_ASSERT(registered(name).type == KnobType::kFlag);
  return env_flag(name, def);
}

void Config::reject_unknown_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    std::string_view kv(*e);
    if (kv.rfind("NEMO_", 0) != 0) continue;
    std::string name(kv.substr(0, kv.find('=')));
    if (find(name.c_str()) == nullptr)
      throw std::invalid_argument(name +
                                  ": unknown NEMO_* knob (nemo-tune --knobs "
                                  "lists the registered ones)");
  }
}

void Options::finalize() const {
  bool bad = false;
  for (const auto& [k, v] : values_) {
    (void)v;
    bool known = false;
    for (const auto& [dk, dh] : declared_) {
      (void)dh;
      if (dk == k) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "unknown option --%s\n", k.c_str());
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr, "usage: %s [options]\n", program_.c_str());
    for (const auto& [dk, dh] : declared_)
      std::fprintf(stderr, "  --%-20s %s\n", dk.c_str(), dh.c_str());
    throw std::invalid_argument("unknown options");
  }
}

ScopedEnv::ScopedEnv(const char* name, const std::string& value)
    : name_(name) {
  if (const char* old = std::getenv(name)) {
    had_env_ = true;
    saved_ = old;
  }
  ::setenv(name, value.c_str(), 1);
}

ScopedEnv::~ScopedEnv() {
  if (had_env_)
    ::setenv(name_.c_str(), saved_.c_str(), 1);
  else
    ::unsetenv(name_.c_str());
}

}  // namespace nemo
