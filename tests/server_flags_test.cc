// Command-line contract of the `mview_server` binary: every numeric flag is
// parsed by one checked helper, so a malformed or out-of-range value prints
// the usage line and exits with status 2 — before storage or a socket is
// opened.  The binary runs under `timeout` so a regression that starts
// serving fails the test instead of hanging it.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

RunResult RunServer(const std::string& args) {
  const std::string command =
      std::string("timeout 10 ") + MVIEW_SERVER_BINARY + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = ::pclose(pipe);
  if (status != -1 && WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

void ExpectUsageExit(const std::string& args) {
  SCOPED_TRACE(args);
  RunResult r = RunServer(args);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage: mview_server"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("listening"), std::string::npos) << r.output;
}

TEST(ServerFlagsTest, MalformedPortExitsWithUsage) {
  ExpectUsageExit("--port=abc");
  ExpectUsageExit("--port=");
  ExpectUsageExit("--port=12x");
}

TEST(ServerFlagsTest, OutOfRangePortExitsWithUsage) {
  ExpectUsageExit("--port=70000");
  ExpectUsageExit("--port=-1");
  ExpectUsageExit("--port=99999999999999999999999");
}

TEST(ServerFlagsTest, EveryNumericFlagIsChecked) {
  // `--port=0` first: should a flag slip through, the server would bind an
  // ephemeral port rather than a fixed one.
  for (const char* flag :
       {"--read-slots", "--write-slots", "--max-request-bytes",
        "--idle-timeout-ms", "--write-timeout-ms", "--drain-timeout-ms"}) {
    ExpectUsageExit(std::string("--port=0 ") + flag + "=ten");
    ExpectUsageExit(std::string("--port=0 ") + flag + "=-5");
  }
}

TEST(ServerFlagsTest, UnknownFlagExitsWithUsage) {
  // The maintenance thread pool is gone; its flag is now unknown.
  ExpectUsageExit("--port=0 --parallelism=2");
}

}  // namespace
