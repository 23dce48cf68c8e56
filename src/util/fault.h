#ifndef MVIEW_UTIL_FAULT_H_
#define MVIEW_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace mview::util {

/// Which exception an armed fault point throws when it fires.
enum class FaultKind {
  kError,       // mview::Error — a broken invariant / logic failure
  kIoError,     // mview::IoError — transient durability failure (EIO)
  kCorruption,  // mview::CorruptionError — sticky, no automatic retry
  kBadAlloc,    // std::bad_alloc — an allocation failure outside the
                // mview::Error hierarchy (exercises the kInternal mapping)
  kDeadline,    // mview::DeadlineExceededError — as if the statement's
                // deadline expired at this poll point (cancellation tests
                // arm it on "cancel.poll" to hit every unwind path)
};

/// Per-point firing policy.  The default spec fires an `Error` exactly once
/// on the first hit.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;

  /// false: fail-once — the point fires on one eligible hit, then disarms
  /// itself (a transient glitch).  true: every eligible hit fires until the
  /// point is explicitly disarmed (a persistent fault, e.g. a dead disk).
  bool sticky = false;

  /// Hits to let pass before the point becomes eligible, so a test can
  /// target "the 3rd commit" deterministically.  0 fires on the first hit.
  int64_t hits_before = 0;

  /// Chance each *eligible* hit fires, in [0, 1].  1.0 (default) is
  /// deterministic; below that, a per-point RNG seeded with `seed` decides,
  /// which is how the chaos runner randomizes while staying reproducible.
  double probability = 1.0;
  uint64_t seed = 0;

  /// Appended to the thrown message (after the point name).
  std::string message;
};

/// Process-wide registry of named fault points.
///
/// Call sites mark themselves with `MVIEW_FAULT_POINT("layer.operation")`;
/// tests arm a point with a `FaultSpec` and the next matching hit throws
/// the configured exception.  The discipline mirrors `obs::Tracer`: the
/// disabled cost is one relaxed atomic load and a branch — no lock, no map
/// lookup, no string — so the points can sit on the maintenance hot path
/// permanently (bench E18 pins the overhead within noise).
///
/// Thread-safety: `Arm`/`Disarm`/counters take the registry mutex; `OnHit`
/// (the armed slow path) does too, so points may be hit from session
/// threads and WAL leader threads concurrently.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// True when at least one point is armed — the macro's fast-path gate.
  bool armed() const { return armed_points_.load(std::memory_order_relaxed) > 0; }

  /// Arms (or re-arms, resetting counters) the named point.
  void Arm(const std::string& point, FaultSpec spec);

  /// Disarms one point / every point.  Disarming keeps nothing: hit
  /// counters for the point are forgotten.
  void Disarm(const std::string& point);
  void DisarmAll();

  /// Slow path behind the macro: looks up `point` and fires per its spec.
  /// A hit on an unarmed point is a no-op (another point is armed).
  void OnHit(const char* point);

  /// Hits observed on an armed point since `Arm` (0 when not armed).
  int64_t HitCount(const std::string& point) const;

  /// Times the armed point has actually fired since `Arm`.
  int64_t FireCount(const std::string& point) const;

  /// Names of currently armed points, sorted.
  std::vector<std::string> ArmedPoints() const;

 private:
  struct Armed {
    FaultSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
    bool spent = false;  // fail-once point that already fired
    std::mt19937_64 rng;
  };

  FaultRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Armed> points_;
  // Count of armed entries, mirrored out of the map so `armed()` needs no
  // lock.  Relaxed is enough: a racing hit that misses a just-armed point
  // behaves like a hit that happened before Arm.
  std::atomic<int64_t> armed_points_{0};
};

/// RAII arming for tests: arms in the constructor, disarms the same point
/// in the destructor so a failing assertion cannot leak an armed fault
/// into the next test.
class ScopedFault {
 public:
  ScopedFault(std::string point, FaultSpec spec) : point_(std::move(point)) {
    FaultRegistry::Global().Arm(point_, std::move(spec));
  }
  ~ScopedFault() { FaultRegistry::Global().Disarm(point_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace mview::util

/// Marks a named fault point.  `name` must be a string literal (the armed
/// slow path interns nothing — it compares against the registry map).
/// Disabled cost: one relaxed atomic load and a never-taken branch.
#define MVIEW_FAULT_POINT(name)                              \
  do {                                                       \
    if (::mview::util::FaultRegistry::Global().armed()) {    \
      ::mview::util::FaultRegistry::Global().OnHit(name);    \
    }                                                        \
  } while (0)

#endif  // MVIEW_UTIL_FAULT_H_
