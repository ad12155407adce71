#pragma once
// Clang thread-safety-analysis annotations (-Wthread-safety) plus an
// annotated mutex wrapper, so every lock-guarded member in the tree can
// declare its lock statically:
//
//   util::Mutex mutex_;
//   int counter_ SOSLOCK_GUARDED_BY(mutex_);
//   void drain_locked() SOSLOCK_REQUIRES(mutex_);
//
// The annotations compile to nothing outside clang (GCC builds them away),
// and the wrapper exists because libstdc++'s std::mutex carries no capability
// attributes — annotating members with GUARDED_BY(std::mutex) would make
// every correctly locked access a false positive. util::Mutex/MutexLock are
// drop-in replacements for std::mutex/std::lock_guard with the capability
// attributes attached; the CI clang job builds with -Wthread-safety -Werror,
// so a member access outside its declared lock fails the build instead of
// surfacing as a TSan race (or worse, a wrong certificate) later.
#include <mutex>

#if defined(__clang__)
#define SOSLOCK_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SOSLOCK_THREAD_ANNOTATION_(x)
#endif

#define SOSLOCK_CAPABILITY(x) SOSLOCK_THREAD_ANNOTATION_(capability(x))
#define SOSLOCK_SCOPED_CAPABILITY SOSLOCK_THREAD_ANNOTATION_(scoped_lockable)
#define SOSLOCK_GUARDED_BY(x) SOSLOCK_THREAD_ANNOTATION_(guarded_by(x))
#define SOSLOCK_PT_GUARDED_BY(x) SOSLOCK_THREAD_ANNOTATION_(pt_guarded_by(x))
#define SOSLOCK_ACQUIRE(...) SOSLOCK_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define SOSLOCK_RELEASE(...) SOSLOCK_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define SOSLOCK_TRY_ACQUIRE(...) \
  SOSLOCK_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define SOSLOCK_REQUIRES(...) SOSLOCK_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define SOSLOCK_EXCLUDES(...) SOSLOCK_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define SOSLOCK_RETURN_CAPABILITY(x) SOSLOCK_THREAD_ANNOTATION_(lock_returned(x))
#define SOSLOCK_NO_THREAD_SAFETY_ANALYSIS \
  SOSLOCK_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace soslock::util {

/// std::mutex with the clang capability attribute attached.
class SOSLOCK_CAPABILITY("mutex") Mutex {
 public:
  void lock() SOSLOCK_ACQUIRE() { m_.lock(); }
  void unlock() SOSLOCK_RELEASE() { m_.unlock(); }
  bool try_lock() SOSLOCK_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// std::lock_guard over util::Mutex, visible to the analysis as a scoped
/// capability: members GUARDED_BY the mutex are accessible for the lifetime
/// of the guard and inaccessible outside it.
class SOSLOCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SOSLOCK_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SOSLOCK_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace soslock::util
