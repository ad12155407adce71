#pragma once
// Compile-time-gated fault-injection registry. Hot paths declare named
// injection sites with the SOSLOCK_FAULT_POINT / SOSLOCK_FAULT_HOOK macros;
// tests arm a site by id + fire-count and the site fires deterministically
// on the chosen traversal. Without SOSLOCK_FAULTS (the Release default) the
// macros compile to ((void)0), exactly like the SDP_VERIFY pass hooks, so
// the framework costs nothing where the bench gates run.
//
// Adding a site: pick a stable id in fault_site (also add it to
// known_sites() in fault.cpp and the README fault table), then drop a macro
// at the point of failure. SOSLOCK_FAULT_POINT throws FaultInjectedError;
// SOSLOCK_FAULT_HOOK runs a statement in the enclosing scope instead, for
// faults that must corrupt local state (poison an iterate, return early)
// rather than throw.
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace soslock::util {

namespace fault_site {
// Stable site ids. Keep in sync with known_sites() and the README table.
inline constexpr const char* kIpmFactorization = "sdp.ipm.factorization";
inline constexpr const char* kIterateNan = "sdp.iterate-nan";
inline constexpr const char* kLoweringPass = "sdp.lowering.pass";
inline constexpr const char* kCacheEvict = "sdp.structure-cache.evict";
}  // namespace fault_site

/// Thrown by a fired SOSLOCK_FAULT_POINT site.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Process-wide registry of armed fault sites. All entry points are
/// thread-safe: sites fire from worker threads while tests arm/inspect from
/// the main thread, and concurrent traversals of one site serialize so a
/// "fire once" arm fires exactly once even under a racing pool.
class FaultInjector {
 public:
  /// Arm `site`: skip the first `fire_after` traversals after arming, then
  /// fire on the next `times` traversals. Re-arming resets the counters.
  static void arm(const std::string& site, int fire_after = 0, int times = 1);
  /// Replace the default effect of `site` while armed: instead of
  /// firing (throw / run the hook statement), a due traversal invokes
  /// `callback` and reports "not fired" to the site. This turns any site
  /// into a deterministic test hook — e.g. flip a cancellation flag
  /// mid-lowering-pass without aborting the pass.
  static void arm_callback(const std::string& site, std::function<void()> callback);
  static void disarm(const std::string& site);
  /// Disarm every site and zero all counters (test fixture teardown).
  static void reset();
  /// Traversals of `site` since it was last armed (0 if never armed).
  static int traversals(const std::string& site);
  /// Times `site` fired (or ran its callback) since it was last armed.
  static int fired(const std::string& site);
  /// Decide-and-count, called by the macros on every traversal of an armed
  /// site. Returns true when the site is due and has no callback.
  static bool should_fire(const char* site);
  /// Every registered site id (the README fault table; tests sync on it).
  static std::vector<std::string> known_sites();
};

}  // namespace soslock::util

#if defined(SOSLOCK_FAULTS)
#define SOSLOCK_FAULT_POINT(site)                                  \
  do {                                                             \
    if (::soslock::util::FaultInjector::should_fire(site)) {       \
      throw ::soslock::util::FaultInjectedError(site);             \
    }                                                              \
  } while (0)
#define SOSLOCK_FAULT_HOOK(site, stmt)                             \
  do {                                                             \
    if (::soslock::util::FaultInjector::should_fire(site)) {       \
      stmt;                                                        \
    }                                                              \
  } while (0)
#else
#define SOSLOCK_FAULT_POINT(site) ((void)0)
#define SOSLOCK_FAULT_HOOK(site, stmt) ((void)0)
#endif
