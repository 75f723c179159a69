// common/log.hpp: SMARTNOC_LOG level parsing, runtime level filtering, the
// wall/cycle message prefix, and the macro guarantee that a disabled level
// does zero formatting work (arguments are not even evaluated).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

#include "common/log.hpp"

namespace smartnoc {
namespace {

/// Redirects Log::stream() to a tmpfile for one test and restores it after;
/// text() returns everything written so far.
class CaptureLog {
 public:
  CaptureLog() : saved_stream_(Log::stream()), saved_level_(Log::level()),
                 saved_cycle_(Log::sim_cycle()) {
    file_ = std::tmpfile();
    EXPECT_NE(file_, nullptr);
    Log::stream() = file_;
  }

  ~CaptureLog() {
    Log::stream() = saved_stream_;
    Log::level() = saved_level_;
    Log::sim_cycle() = saved_cycle_;
    if (file_ != nullptr) std::fclose(file_);
  }

  std::string text() {
    std::fflush(file_);
    std::rewind(file_);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, file_)) > 0) out.append(buf, n);
    return out;
  }

 private:
  std::FILE* file_ = nullptr;
  std::FILE* saved_stream_;
  LogLevel saved_level_;
  long long saved_cycle_;
};

TEST(CommonLog, ParseLevelNamesAndDigits) {
  bool ok = false;
  EXPECT_EQ(Log::parse_level("error", &ok), LogLevel::Error);
  EXPECT_TRUE(ok);
  EXPECT_EQ(Log::parse_level("warn", &ok), LogLevel::Warn);
  EXPECT_EQ(Log::parse_level("info", &ok), LogLevel::Info);
  EXPECT_EQ(Log::parse_level("debug", &ok), LogLevel::Debug);
  EXPECT_EQ(Log::parse_level("trace", &ok), LogLevel::Trace);
  EXPECT_EQ(Log::parse_level("TRACE", &ok), LogLevel::Trace) << "case-insensitive";
  EXPECT_EQ(Log::parse_level("Info", &ok), LogLevel::Info);
  for (int d = 0; d <= 4; ++d) {
    const char digit[2] = {static_cast<char>('0' + d), '\0'};
    EXPECT_EQ(Log::parse_level(digit, &ok), static_cast<LogLevel>(d));
    EXPECT_TRUE(ok);
  }
}

TEST(CommonLog, ParseLevelRejectsGarbage) {
  for (const char* bad : {"", "verbose", "5", "-1", "warns", "42"}) {
    bool ok = true;
    EXPECT_EQ(Log::parse_level(bad, &ok), LogLevel::Warn) << bad;
    EXPECT_FALSE(ok) << bad;
  }
}

TEST(CommonLog, LevelFiltersMessages) {
  CaptureLog cap;
  Log::level() = LogLevel::Warn;
  EXPECT_TRUE(Log::enabled(LogLevel::Error));
  EXPECT_TRUE(Log::enabled(LogLevel::Warn));
  EXPECT_FALSE(Log::enabled(LogLevel::Info));
  EXPECT_FALSE(Log::enabled(LogLevel::Debug));

  SMARTNOC_LOG_WARN("visible %d", 1);
  SMARTNOC_LOG_INFO("hidden %d", 2);
  SMARTNOC_LOG_DEBUG("hidden %d", 3);
  const std::string out = cap.text();
  EXPECT_NE(out.find("visible 1"), std::string::npos);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("[WARN ]"), std::string::npos);
}

TEST(CommonLog, CyclePrefixFollowsSimCycle) {
  CaptureLog cap;
  Log::level() = LogLevel::Info;

  Log::sim_cycle() = -1;
  SMARTNOC_LOG_INFO("no sim");
  Log::sim_cycle() = 48128;
  SMARTNOC_LOG_INFO("in sim");

  const std::string out = cap.text();
  const std::size_t first_nl = out.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  const std::string line1 = out.substr(0, first_nl);
  const std::string line2 = out.substr(first_nl + 1);
  EXPECT_EQ(line1.find("cycle"), std::string::npos) << "-1 means no cycle prefix";
  EXPECT_NE(line1.find("[wall +"), std::string::npos);
  EXPECT_NE(line2.find("| cycle 48128] in sim"), std::string::npos);
}

TEST(CommonLog, SimCycleIsPerThread) {
  CaptureLog cap;
  Log::sim_cycle() = 48128;
  long long seen = 0;
  std::thread other([&seen] {
    seen = Log::sim_cycle();
    Log::sim_cycle() = 7;  // a concurrent session's clock
  });
  other.join();
  EXPECT_EQ(seen, -1) << "another thread's cycle must not leak into this one";
  EXPECT_EQ(Log::sim_cycle(), 48128);
}

TEST(CommonLog, DisabledLevelEvaluatesNoArguments) {
  CaptureLog cap;
  Log::level() = LogLevel::Error;
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return 7;
  };
  SMARTNOC_LOG_WARN("w %d", expensive());
  SMARTNOC_LOG_INFO("i %d", expensive());
  SMARTNOC_LOG_DEBUG("d %d", expensive());
  EXPECT_EQ(evaluations, 0) << "macro must guard argument evaluation";
  EXPECT_EQ(cap.text(), "");

  Log::level() = LogLevel::Debug;
  SMARTNOC_LOG_DEBUG("d %d", expensive());
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(cap.text().find("d 7"), std::string::npos);
}

}  // namespace
}  // namespace smartnoc
