// mview_server: the line-oriented TCP frontend as a standalone binary.
//
//   mview_server [--port=N] [--data=DIR] [--auth-token=SECRET]
//                [--read-slots=N] [--write-slots=N]
//                [--max-request-bytes=N] [--idle-timeout-ms=N]
//                [--write-timeout-ms=N] [--drain-timeout-ms=N]
//
//  --port=N         port on 127.0.0.1 (default 7433; 0 = ephemeral)
//  --data=DIR       durable database directory (recovered on start,
//                   checkpointed on drain); omit for an in-memory engine
//  --auth-token=S   shared secret; clients must HELLO <S> first
//  --read-slots=N   admission budget for the read lane (0 = unlimited)
//  --write-slots=N  admission budget for the write lane (0 = unlimited)
//  --max-request-bytes=N  request-frame cap (default 1 MiB)
//  --idle-timeout-ms=N    close idle connections (0 = never)
//  --write-timeout-ms=N   stalled-client write timeout (default 10s)
//  --drain-timeout-ms=N   graceful-drain bound (default 5s)
//
// Protocol: one SQL statement per line in, one JSON response line out —
// see src/server/wire.h.  SIGINT/SIGTERM drain gracefully: in-flight
// statements finish and their responses are written before sockets close;
// stragglers are cancelled and cut off at the drain timeout.
//
// Every N is a non-negative decimal integer (the port at most 65535); an
// unknown flag or a malformed or out-of-range number prints the usage line
// and exits with status 2 before anything is opened.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "server/server.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "util/admission.h"

namespace {

constexpr const char* kUsage =
    "usage: mview_server [--port=N] [--data=DIR] [--auth-token=SECRET]"
    " [--read-slots=N] [--write-slots=N] [--max-request-bytes=N]"
    " [--idle-timeout-ms=N] [--write-timeout-ms=N] [--drain-timeout-ms=N]\n";

[[noreturn]] void UsageExit(const std::string& problem) {
  std::cerr << "mview_server: " << problem << "\n" << kUsage;
  std::exit(2);
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// The value of `--name=value` as a decimal integer in [0, max]; anything
/// else (empty, a sign, trailing characters, overflow, above `max`) exits
/// through `UsageExit`.
int64_t ParseCount(const std::string& name, const std::string& value,
                   int64_t max = std::numeric_limits<int64_t>::max()) {
  int64_t n = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (value.empty() || value[0] == '-' || ec != std::errc() || ptr != end ||
      n > max) {
    UsageExit("--" + name + " expects an integer in [0, " +
              std::to_string(max) + "], got '" + value + "'");
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7433;
  std::string data;
  mview::util::AdmissionController::Options admission;
  mview::server::Server::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "port", &value)) {
      port = static_cast<uint16_t>(ParseCount("port", value, 65535));
    } else if (ParseFlag(arg, "data", &value)) {
      data = value;
    } else if (ParseFlag(arg, "auth-token", &value)) {
      options.auth_token = value;
    } else if (ParseFlag(arg, "read-slots", &value)) {
      admission.read_slots = ParseCount("read-slots", value);
    } else if (ParseFlag(arg, "write-slots", &value)) {
      admission.write_slots = ParseCount("write-slots", value);
    } else if (ParseFlag(arg, "max-request-bytes", &value)) {
      options.max_request_bytes =
          static_cast<size_t>(ParseCount("max-request-bytes", value));
    } else if (ParseFlag(arg, "idle-timeout-ms", &value)) {
      options.idle_timeout_ms = ParseCount("idle-timeout-ms", value);
    } else if (ParseFlag(arg, "write-timeout-ms", &value)) {
      options.write_timeout_ms = ParseCount("write-timeout-ms", value);
    } else if (ParseFlag(arg, "drain-timeout-ms", &value)) {
      options.drain_timeout_ms = ParseCount("drain-timeout-ms", value);
    } else {
      UsageExit("unknown argument: " + arg);
    }
  }

  try {
    std::unique_ptr<mview::Storage> storage;
    if (!data.empty()) storage = mview::Storage::Open(data);
    mview::sql::EngineCore core(storage.get());
    if (admission.read_slots > 0 || admission.write_slots > 0) {
      core.SetAdmissionControl(admission);
    }

    options.port = port;
    mview::server::Server server(&core, options);
    server.Start();
    mview::server::InstallShutdownSignalHandlers(server);
    std::cout << "mview_server listening on 127.0.0.1:" << server.port()
              << (data.empty() ? " (in-memory)" : (" (data: " + data + ")"))
              << std::endl;
    server.Wait();
    std::cout << "mview_server drained" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "mview_server: " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
