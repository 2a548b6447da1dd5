// Tiny command-line/environment option parser used by benches and examples.
// Syntax: --key=value or --flag. Unknown keys are rejected so typos surface.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace nemo {

class Options {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  Options(int argc, char** argv);
  Options() = default;

  /// Declare a key so `finalize()` can reject unknown options.
  void declare(const std::string& key, const std::string& help);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  /// Size values accept unit suffixes ("64KiB", "4M").
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t def) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;

  /// Verify all provided keys were declared; print help and throw otherwise.
  void finalize() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> declared_;
};

// ---------------------------------------------------------------------------
// Environment knobs. Every NEMO_* tunable is declared once in the Config
// registry below and read through its typed accessors, so each knob has one
// spelling, one parse, and one loud error path shared by all entry points —
// tests, benches, examples and the runtime itself.
// ---------------------------------------------------------------------------

/// Raw environment lookup; empty optional when unset or empty.
std::optional<std::string> env_str(const char* name);

/// Size knob with unit suffixes ("64KiB", "4M"). The sentinels "off" and
/// "never" parse as SIZE_MAX (callers use that to disable a threshold).
std::size_t env_size(const char* name, std::size_t def);

/// Integer knob; throws std::invalid_argument on non-numeric values so a
/// typo'd knob aborts bring-up instead of silently reading as 0.
long env_long(const char* name, long def);

/// Boolean knob: "0"/"false"/"off"/"no" are false, "1"/"true"/"on"/"yes"
/// are true; anything else throws std::invalid_argument.
bool env_flag(const char* name, bool def);

/// How a knob's value string is parsed (and how `nemo-tune --knobs`
/// renders its default).
enum class KnobType { kFlag, kInt, kSize, kString };

struct KnobInfo {
  const char* name;     ///< environment variable, e.g. "NEMO_NT_MIN"
  KnobType type;        ///< parse discipline
  const char* def;      ///< default, as shown to humans ("auto", "formula"…)
  const char* read_by;  ///< owning subsystem (core, shm, coll, tune, …)
  const char* meaning;  ///< one-line description
};

/// Central registry of every NEMO_* environment knob. All subsystems read
/// knobs through these accessors; each accessor asserts the knob is
/// registered (so an unregistered spelling is a programming error, caught
/// in debug builds) and surfaces malformed values as one loud
/// std::invalid_argument naming the knob. Precedence stays with the
/// caller: env > tuning cache > formula, exactly as before.
class Config {
 public:
  /// All registered knobs, sorted by name — feeds `nemo-tune --knobs`.
  static const std::vector<KnobInfo>& knobs();

  /// Registry row for `name`, or nullptr when unknown.
  static const KnobInfo* find(const char* name);

  /// Raw string value; empty optional when unset or empty.
  static std::optional<std::string> str(const char* name);

  /// Size knob ("64KiB", "4M"; "off"/"never" → SIZE_MAX).
  static std::size_t size(const char* name, std::size_t def);

  /// Integer knob; throws on non-numeric values.
  static long integer(const char* name, long def);

  /// Boolean knob; throws on anything outside the on/off vocabulary.
  static bool flag(const char* name, bool def);

  /// Throw std::invalid_argument naming the first NEMO_* environment
  /// variable that is not a registered knob, so a typo or a retired knob
  /// fails bring-up instead of silently running the default path.
  static void reject_unknown_env();
};

/// RAII env pin with save/restore — for tooling, benches and tests that
/// must force a knob for a scope and put the ambient value back (setenv
/// during concurrent World construction elsewhere is a race, so
/// single-threaded phases only). One shared implementation so restore
/// semantics cannot drift between copies.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value);
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_env_ = false;
  std::string saved_;
};

}  // namespace nemo
