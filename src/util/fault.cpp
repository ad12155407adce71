#include "util/fault.hpp"

#include <functional>
#include <map>
#include <utility>

#include "util/thread_annotations.hpp"

namespace soslock::util {
namespace {

struct SiteState {
  bool armed = false;
  int fire_after = 0;  // traversals to skip before the first fire
  int remaining = 0;   // fires left once due
  int traversals = 0;
  int fired = 0;
  std::function<void()> callback;  // replaces the default effect when set
};

struct Registry {
  Mutex mutex;
  // Transparent comparator: should_fire looks its const char* site up
  // without building a std::string, so a traversal allocates nothing (the
  // IPM's no-allocation-after-the-first-step contract holds in fault builds).
  std::map<std::string, SiteState, std::less<>> sites SOSLOCK_GUARDED_BY(mutex);
};

// Leaked singleton: sites can fire from detached-ish worker threads during
// static destruction, so the registry must outlive everything.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

void FaultInjector::arm(const std::string& site, int fire_after, int times) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  SiteState& st = reg.sites[site];
  st = SiteState{};
  st.armed = true;
  st.fire_after = fire_after;
  st.remaining = times;
}

void FaultInjector::arm_callback(const std::string& site,
                                 std::function<void()> callback) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  SiteState& st = reg.sites[site];
  st = SiteState{};
  st.armed = true;
  st.remaining = 1;
  st.callback = std::move(callback);
}

void FaultInjector::disarm(const std::string& site) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  const auto it = reg.sites.find(site);
  if (it != reg.sites.end()) it->second.armed = false;
}

void FaultInjector::reset() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  reg.sites.clear();
}

int FaultInjector::traversals(const std::string& site) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.traversals;
}

int FaultInjector::fired(const std::string& site) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fired;
}

bool FaultInjector::should_fire(const char* site) {
  std::function<void()> callback;
  {
    Registry& reg = registry();
    const MutexLock lock(reg.mutex);
    const auto it = reg.sites.find(site);
    if (it == reg.sites.end()) return false;
    SiteState& st = it->second;
    const int seen = st.traversals++;
    if (!st.armed || st.remaining <= 0 || seen < st.fire_after) return false;
    --st.remaining;
    ++st.fired;
    if (!st.callback) return true;
    callback = st.callback;
  }
  // Run test callbacks outside the registry lock: they may re-enter the
  // injector or take solver locks of their own.
  callback();
  return false;
}

std::vector<std::string> FaultInjector::known_sites() {
  return {fault_site::kIpmFactorization, fault_site::kIterateNan,
          fault_site::kLoweringPass, fault_site::kCacheEvict};
}

}  // namespace soslock::util
