#include "run/run_state.hpp"

#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"

namespace sdcmd::run {

namespace {

constexpr const char* kSchema = "sdcmd.run_state.v1";

/// Minimal parser for the exact shape we write: one flat JSON object whose
/// values are strings, numbers or booleans. Not a general JSON parser —
/// the writer is obs::JsonWriter in this file, and the chaos tooling's
/// python json module keeps us honest about emitting real JSON.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  /// Parse `{"key": scalar, ...}` into the callback.
  template <typename Fn>
  void parse_object(Fn&& on_member) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      on_member(key);
      skip_ws();
      const char c = next();
      if (c == '}') return;
      if (c != ',') {
        fail("expected ',' or '}' after member");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported escape in run_state string");
        }
      } else {
        out += c;
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    return std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
  }

  bool parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true/false");
    return false;  // unreachable
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("run_state: " + why + " (byte " + std::to_string(pos_) +
                     " of " + std::to_string(text_.size()) + ")");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_++];
  }
  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

std::string to_json(const RunState& state) {
  std::string out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.member("schema", kSchema);
  json.member("step", static_cast<std::int64_t>(state.step));
  json.member("dt", state.dt);
  json.member("total_energy", state.total_energy);
  json.member("momentum_zeroed", state.momentum_zeroed);
  json.member("config_hash", hex64(state.config_hash));
  json.member("checkpoint_file", state.checkpoint_file);
  json.member("governor", state.has_governor);
  json.member("governor_strategy",
              StrategyGovernor::strategy_code(state.governor.active));
  json.member("governor_demotions",
              static_cast<std::int64_t>(state.governor.demotions));
  json.member("governor_promotions",
              static_cast<std::int64_t>(state.governor.promotions));
  json.member("governor_race_suspects",
              static_cast<std::int64_t>(state.governor.race_suspects));
  json.member("governor_feasible_streak", state.governor.feasible_streak);
  json.member("governor_backoff", state.governor.backoff);
  json.end_object();
  return out;
}

RunState parse_run_state(const std::string& json) {
  RunState state;
  std::string schema;
  int strategy_code = 0;
  bool saw_step = false, saw_dt = false;
  FlatJsonParser parser(json);
  parser.parse_object([&](const std::string& key) {
    if (key == "schema") {
      schema = parser.parse_string();
    } else if (key == "step") {
      state.step = static_cast<long>(parser.parse_number());
      saw_step = true;
    } else if (key == "dt") {
      state.dt = parser.parse_number();
      saw_dt = true;
    } else if (key == "total_energy") {
      state.total_energy = parser.parse_number();
    } else if (key == "momentum_zeroed") {
      state.momentum_zeroed = parser.parse_bool();
    } else if (key == "config_hash") {
      state.config_hash =
          std::strtoull(parser.parse_string().c_str(), nullptr, 16);
    } else if (key == "checkpoint_file") {
      state.checkpoint_file = parser.parse_string();
    } else if (key == "governor") {
      state.has_governor = parser.parse_bool();
    } else if (key == "governor_strategy") {
      strategy_code = static_cast<int>(parser.parse_number());
    } else if (key == "governor_demotions") {
      state.governor.demotions = static_cast<long>(parser.parse_number());
    } else if (key == "governor_promotions") {
      state.governor.promotions = static_cast<long>(parser.parse_number());
    } else if (key == "governor_race_suspects") {
      state.governor.race_suspects = static_cast<long>(parser.parse_number());
    } else if (key == "governor_feasible_streak") {
      state.governor.feasible_streak =
          static_cast<int>(parser.parse_number());
    } else if (key == "governor_backoff") {
      state.governor.backoff = static_cast<int>(parser.parse_number());
    } else {
      // Unknown members are skipped for forward compatibility (a v1.1
      // writer may add fields this reader does not know about).
      const char c = parser.peek();
      if (c == '"') {
        parser.parse_string();
      } else if (c == 't' || c == 'f') {
        parser.parse_bool();
      } else {
        parser.parse_number();
      }
    }
  });
  if (schema != kSchema) {
    throw ParseError("run_state: schema mismatch: expected '" +
                     std::string(kSchema) + "', got '" + schema + "'");
  }
  if (!saw_step || !saw_dt) {
    throw ParseError("run_state: missing required member (step, dt)");
  }
  if (state.dt <= 0.0) {
    throw ParseError("run_state: dt must be positive");
  }
  if (state.step < 0) {
    throw ParseError("run_state: step must be non-negative");
  }
  // Decode the governor rung defensively: a sidecar written by a NEWER
  // ladder may carry a code this build has never heard of, and one written
  // by an older ladder may carry the retired cell-task code 7 (codes are
  // append-only, so misdecoding is impossible — but so is guessing).
  // Dropping only the governor block keeps the rest of the sidecar (step,
  // dt, momentum flag, checkpoint pointer) usable: the resumed run falls
  // back to fresh governor setup instead of discarding the whole resume.
  const std::optional<ReductionStrategy> active =
      StrategyGovernor::try_strategy_from_code(strategy_code);
  if (active && StrategyGovernor::on_ladder(*active)) {
    state.governor.active = *active;
  } else if (state.has_governor) {
    SDCMD_WARN("run_state: unknown or off-ladder governor strategy code "
               << strategy_code
               << " (a retired rung or a newer build); ignoring the saved "
                  "governor state");
    state.has_governor = false;
    state.governor = GovernorState{};
  }
  return state;
}

}  // namespace sdcmd::run
