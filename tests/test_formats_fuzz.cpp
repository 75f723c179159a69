// Seeded, bounded mutation fuzz over every text format the simulator reads
// back: scenario text and JSON, result-table CSV and JSON, single-record
// JSON (the cache and checkpoint line payload) and the heartbeat.
//
// Inputs are the pinned corpus (format_corpus.hpp) mutated by byte flips,
// inserts, deletes and splices from other corpus entries. Invariants:
//   * the only exception that escapes a reader is ConfigError;
//   * an accepted scenario's text and JSON serializations are fixpoints of
//     parse -> serialize and agree across dialects;
//   * an accepted table's CSV and JSON, an accepted record and an accepted
//     heartbeat are fixpoints of parse -> serialize.
// The seed is fixed, so a failure reproduces; the iteration count keeps the
// whole run well under a few seconds (sanitizer builds included).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "format_corpus.hpp"
#include "sim/scenario.hpp"

namespace smartnoc {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00dULL;
constexpr int kIterations = 5000;  // per format

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  const std::string& pick() { return corpus_[below(corpus_.size())]; }

  /// One to four byte-level mutations of `s`.
  std::string mutate(std::string s) {
    const int n = 1 + static_cast<int>(below(4));
    for (int i = 0; i < n; ++i) {
      const std::size_t pos = below(s.size() + 1);
      switch (below(4)) {
        case 0:  // flip one bit
          if (!s.empty()) s[pos % s.size()] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // insert a byte, biased towards the formats' syntax
          s.insert(pos, 1, below(2) == 0 ? kSyntax[below(sizeof kSyntax - 1)]
                                         : static_cast<char>(below(256)));
          break;
        case 2:  // delete a short run
          if (!s.empty()) s.erase(pos % s.size(), 1 + below(8));
          break;
        default: {  // splice in a slice of another input
          const std::string& other = pick();
          const std::size_t from = below(other.size() + 1);
          s.insert(pos, other.substr(from, 1 + below(24)));
        }
      }
    }
    return s;
  }

 private:
  static constexpr char kSyntax[] = "{}[],:\"\\#=x@+- \n\t\r0123456789.eEnaifu";

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_.next() % n; }

  Xoshiro256 rng_;
  std::vector<std::string> corpus_;
};

/// Runs `check` on kIterations mutants of `corpus`; a mutant the reader
/// rejects with ConfigError is skipped, anything else thrown fails the test.
void fuzz(std::uint64_t seed, std::vector<std::string> corpus,
          const std::function<void(const std::string&)>& check) {
  Mutator m(seed, std::move(corpus));
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = m.mutate(m.pick());
    try {
      check(input);
      ++accepted;
    } catch (const ConfigError&) {
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "iteration " << i << ", input:\n" << input;
      return;
    }
  }
  ::testing::Test::RecordProperty("accepted", accepted);
  std::printf("%d of %d mutants accepted\n", accepted, kIterations);
}

std::vector<std::string> scenario_corpus() {
  std::vector<std::string> out = {testing::kScenarioText, testing::kEveryKeyScenario};
  for (const auto& [name, text] : testing::example_scenarios()) out.push_back(text);
  const std::size_t texts = out.size();
  for (std::size_t i = 0; i < texts; ++i) {
    out.push_back(sim::serialize_scenario_json(sim::parse_scenario(out[i])));
  }
  return out;
}

TEST(FormatsFuzz, ScenarioTextAndJson) {
  fuzz(kSeed, scenario_corpus(), [](const std::string& input) {
    const sim::ScenarioSpec spec = sim::parse_scenario(input);
    const std::string text = sim::serialize_scenario_text(spec);
    const std::string json = sim::serialize_scenario_json(spec);
    // Once accepted, nothing may throw: a reparse failure is a hole.
    try {
      const sim::ScenarioSpec from_text = sim::parse_scenario(text);
      const sim::ScenarioSpec from_json = sim::parse_scenario(json);
      EXPECT_EQ(sim::serialize_scenario_text(from_text), text);
      EXPECT_EQ(sim::serialize_scenario_json(from_json), json);
      EXPECT_EQ(sim::serialize_scenario_text(from_json), text);
      EXPECT_EQ(sim::serialize_scenario_json(from_text), json);
      EXPECT_EQ(from_text, from_json);
    } catch (const ConfigError& e) {
      ADD_FAILURE() << "serialized form does not parse back: " << e.what() << "\n" << text;
    }
  });
}

/// A parsed table's CSV and JSON each read back to the same bytes.
void expect_table_fixpoint(const explore::ResultTable& parsed) {
  const std::string csv = parsed.to_csv();
  const std::string json = parsed.to_json();
  try {
    EXPECT_EQ(explore::ResultTable::from_csv(csv).to_csv(), csv);
    EXPECT_EQ(explore::ResultTable::from_json(json).to_json(), json);
    EXPECT_EQ(explore::ResultTable::from_json(json).to_csv(), csv);
  } catch (const ConfigError& e) {
    ADD_FAILURE() << "serialized table does not parse back: " << e.what();
  }
}

TEST(FormatsFuzz, ResultTableCsv) {
  const explore::ResultTable table = testing::hostile_table();
  fuzz(kSeed + 1, {table.to_csv(), explore::ResultTable().to_csv()},
       [](const std::string& input) {
         expect_table_fixpoint(explore::ResultTable::from_csv(input));
       });
}

TEST(FormatsFuzz, ResultTableJson) {
  const explore::ResultTable table = testing::hostile_table();
  fuzz(kSeed + 2, {table.to_json(), "[]"}, [](const std::string& input) {
    expect_table_fixpoint(explore::ResultTable::from_json(input));
  });
}

TEST(FormatsFuzz, RecordJson) {
  const explore::ResultTable table = testing::hostile_table();
  fuzz(kSeed + 3,
       {explore::record_to_json(table.at(0)), explore::record_to_json(table.at(1))},
       [](const std::string& input) {
         const std::string json = explore::record_to_json(explore::record_from_json(input));
         try {
           EXPECT_EQ(explore::record_to_json(explore::record_from_json(json)), json);
         } catch (const ConfigError& e) {
           ADD_FAILURE() << "serialized record does not parse back: " << e.what();
         }
       });
}

TEST(FormatsFuzz, HeartbeatJson) {
  // Heartbeats have no byte pin, so the corpus also holds a fixed line that
  // does not come from the writer under test.
  const std::string escaped =
      R"({"pid": 7, "uptime_seconds": 1.5, "job": "a\nb\"c\\d\u0001\t", "points_done": 1, )"
      R"("points_total": 2, "points_per_sec": 0.5, "eta_seconds": 2})";
  fuzz(kSeed + 4,
       {escaped, obs::to_json(testing::hostile_heartbeat()), obs::to_json(obs::Heartbeat{})},
       [](const std::string& input) {
         const std::string json = obs::to_json(obs::heartbeat_from_json(input));
         try {
           EXPECT_EQ(obs::to_json(obs::heartbeat_from_json(json)), json);
         } catch (const ConfigError& e) {
           ADD_FAILURE() << "serialized heartbeat does not parse back: " << e.what();
         }
       });
}

}  // namespace
}  // namespace smartnoc
