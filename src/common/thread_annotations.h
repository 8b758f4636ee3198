// Clang thread-safety analysis annotations (no-ops elsewhere).
//
// The concurrency layer (ThreadPool admission, stream queues, env-warn
// registry) documents its locking discipline with these macros so that a
// Clang build with -Wthread-safety (-DSHALOM_THREAD_SAFETY=ON) verifies
// the discipline statically: a guarded field touched without its mutex,
// or a *_locked helper called outside the lock, becomes a compile error
// instead of a TSan report that depends on test coverage.
//
// libstdc++'s std::mutex carries no capability attribute, so the analysis
// cannot see through it. shalom::Mutex below wraps std::mutex as an
// annotated capability and shalom::MutexLock is the annotated scoped
// lock; lock-based code in src/ uses these wrappers instead of the std
// types. Atomics are deliberately out of scope here: they carry no lock
// to analyze, and their discipline (every operation names an explicit
// std::memory_order) is enforced by tools/shalom_lint instead.
//
// This header stays internal: the public C surface (core/shalom_c.h)
// must remain annotation-clean (see API.md).
#pragma once

#include <mutex>

#if defined(__clang__) && defined(SHALOM_THREAD_SAFETY_ANALYSIS)
#define SHALOM_TSA(x) __attribute__((x))
#else
#define SHALOM_TSA(x)  // no-op: GCC and unannotated Clang builds
#endif

/// Marks a type as a capability ("mutex") the analysis tracks.
#define SHALOM_CAPABILITY(x) SHALOM_TSA(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SHALOM_SCOPED_CAPABILITY SHALOM_TSA(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SHALOM_GUARDED_BY(x) SHALOM_TSA(guarded_by(x))

/// Pointer member whose pointee is guarded by `x` (the pointer itself may
/// be read freely).
#define SHALOM_PT_GUARDED_BY(x) SHALOM_TSA(pt_guarded_by(x))

/// Function that may only be called while holding the listed capabilities
/// (the *_locked helper convention).
#define SHALOM_REQUIRES(...) SHALOM_TSA(requires_capability(__VA_ARGS__))

/// Function that must NOT be called while holding the listed capabilities
/// (deadlock documentation, e.g. callbacks invoked under no lock).
#define SHALOM_EXCLUDES(...) SHALOM_TSA(locks_excluded(__VA_ARGS__))

/// Function that acquires / releases the listed capabilities.
#define SHALOM_ACQUIRE(...) SHALOM_TSA(acquire_capability(__VA_ARGS__))
#define SHALOM_RELEASE(...) SHALOM_TSA(release_capability(__VA_ARGS__))
#define SHALOM_TRY_ACQUIRE(...) SHALOM_TSA(try_acquire_capability(__VA_ARGS__))

/// Escape hatch for functions whose locking the analysis cannot follow;
/// every use must carry a comment justifying why.
#define SHALOM_NO_THREAD_SAFETY_ANALYSIS \
  SHALOM_TSA(no_thread_safety_analysis)

/// Function returning a reference to a capability (accessor convention).
#define SHALOM_RETURN_CAPABILITY(x) SHALOM_TSA(lock_returned(x))

namespace shalom {

/// std::mutex wrapped as an annotated capability. Same cost, same
/// semantics; exists only so -Wthread-safety can track it.
class SHALOM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SHALOM_ACQUIRE() { mu_.lock(); }
  void unlock() SHALOM_RELEASE() { mu_.unlock(); }
  bool try_lock() SHALOM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated scoped lock over shalom::Mutex. Also satisfies
/// BasicLockable (lock/unlock), so std::condition_variable_any can wait
/// on it directly; the capability appears continuously held across the
/// wait, which matches how the guarded state is actually used (checked
/// and mutated only between wakeups, with the lock held).
class SHALOM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SHALOM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SHALOM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable surface for condition_variable_any::wait.
  void lock() SHALOM_ACQUIRE() { mu_.lock(); }
  void unlock() SHALOM_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace shalom
